package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/nn"
	"edgepulse/internal/project"
	"edgepulse/internal/tensor"
)

// env is what a workload's set-up needs from the run.
type env struct {
	in     *inputs
	outDir string
	// rec and wire are the span recorder and byte counter of a traced
	// run, nil otherwise.
	rec  *recorder
	wire *wireBytes
}

// workload is one traffic mix, set up and ready to run.
type workload struct {
	// opsPerCall is how many ops one call carries (8 windows per batch
	// request; 1 elsewhere).
	opsPerCall int
	// spanName names the span a traced run opens around each call.
	spanName string
	// call performs the caller's i-th call, checks its output and
	// returns the latency the caller saw.
	call func(sc spanCtx, i int) (time.Duration, error)
	// generate does only the load generator's own share of a call
	// (building the request, decoding a canned reply, checking it).
	// nil when the generator does nothing the system would not.
	generate func(i int) error
	// prepare computes what the checks compare against. It runs once,
	// after set-up is timed: it is the benchmark's work, not the system's.
	prepare func() error
	// finish runs the end-of-run output checks.
	finish func() error
	// close releases everything set-up made; its error is a failed check.
	close func() error

	// next numbers the calls across warm-up and passes.
	next  int
	dials *dialCounter
}

// spanCtx carries the open span of a traced call; the zero value means
// tracing is off.
type spanCtx struct {
	rec *recorder
	id  int
}

// child times fn as a child span of sc (or just runs it, untraced).
func (sc spanCtx) child(name string, fn func()) {
	if sc.rec == nil {
		fn()
		return
	}
	id := sc.rec.begin(name, sc.id, -1)
	fn()
	sc.rec.end(id)
}

type spanKey struct{}

// context hands the span to the transport's spanTagger.
func (sc spanCtx) context() context.Context {
	if sc.rec == nil {
		return context.Background()
	}
	return context.WithValue(context.Background(), spanKey{}, sc.id)
}

// spanTagger sends the calling span's ID as X-Request-Id, which the
// daemon echoes and spanMiddleware reads, so both sides of one request
// share an identifier. It also counts the body bytes of tagged requests
// and their replies.
type spanTagger struct {
	next http.RoundTripper
	wire *wireBytes
}

// wireBytes totals what tagged requests put on the wire.
type wireBytes struct{ calls, req, resp atomic.Int64 }

func (t spanTagger) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(spanKey{}).(int)
	if !ok {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(api.RequestIDHeader, strconv.Itoa(id))
	t.wire.calls.Add(1)
	t.wire.req.Add(r.ContentLength)
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.wire.resp}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// spanMiddleware records an api.handler span around the daemon's whole
// handler chain for requests that carry a span ID; others pass through.
func spanMiddleware(rec *recorder) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get(api.RequestIDHeader))
			if err != nil || !rec.valid(parent) {
				next.ServeHTTP(w, r)
				return
			}
			id := rec.begin("api.handler", parent, -1)
			next.ServeHTTP(w, r)
			rec.end(id)
		})
	}
}

// traceHooks returns the handler and transport wrappers of a traced run.
func (e env) traceHooks() (func(http.Handler) http.Handler, func(http.RoundTripper) http.RoundTripper) {
	if e.rec == nil {
		return nil, nil
	}
	return spanMiddleware(e.rec), func(rt http.RoundTripper) http.RoundTripper { return spanTagger{rt, e.wire} }
}

var workloadNames = []string{"serve_classify", "serve_batch_i8", "edge_infer", "ingest_upload"}

func setupWorkload(name string, e env) (*workload, error) {
	switch name {
	case "serve_classify":
		return setupServe(e, false)
	case "serve_batch_i8":
		return setupServe(e, true)
	case "edge_infer":
		return setupEdge(e)
	case "ingest_upload":
		return setupIngest(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// sameScores checks a served result against the in-core one: the label
// and every class score, bit for bit (float32 survives JSON exactly).
func sameScores(want core.ClassResult, label string, scores map[string]float32) error {
	if label != want.Label {
		return fmt.Errorf("label %q, in-core result says %q", label, want.Label)
	}
	if len(scores) != len(want.Scores) {
		return fmt.Errorf("%d scores, in-core result has %d", len(scores), len(want.Scores))
	}
	for c, v := range want.Scores {
		if got, ok := scores[c]; !ok || got != v {
			return fmt.Errorf("score[%s] = %v, in-core result says %v", c, got, v)
		}
	}
	return nil
}

// setupServe boots a daemon serving the KWS impulse. batch selects
// serve_batch_i8 (8-window int8 batches) over serve_classify.
func setupServe(e env, batch bool) (*workload, error) {
	m, err := newModel("kws")
	if err != nil {
		return nil, err
	}
	wrap, rt := e.traceHooks()
	d, err := bootDaemon("", wrap)
	if err != nil {
		return nil, err
	}
	d.project.SetImpulse(m.imp)
	w := &workload{opsPerCall: 1, spanName: "client.call", dials: &dialCounter{}}
	c, closeIdle := d.newClient(w.dials, rt)
	pid, in := d.project.ID, e.in

	var want []core.ClassResult
	var canned [][]byte
	expect := func(classify func(dsp.Signal) (core.ClassResult, error)) error {
		for _, win := range in.pool {
			res, err := classify(kwsSignal(win))
			if err != nil {
				return err
			}
			want = append(want, res)
		}
		return nil
	}
	if !batch {
		w.prepare = func() error {
			if err := expect(m.imp.Classify); err != nil {
				return err
			}
			for _, r := range want {
				blob, err := json.Marshal(v1.ClassifyResponse{Success: true, Label: r.Label, Classification: r.Scores})
				if err != nil {
					return err
				}
				canned = append(canned, blob)
			}
			return nil
		}
		w.call = func(sc spanCtx, i int) (time.Duration, error) {
			win := i % poolSize
			t0 := time.Now()
			res, err := c.Classify(sc.context(), pid, in.pool[win], false)
			lat := time.Since(t0)
			if err != nil {
				return lat, err
			}
			return lat, sameScores(want[win], res.Label, res.Classification)
		}
		w.generate = func(i int) error {
			win := i % poolSize
			if _, err := in.classifyBody(win); err != nil {
				return err
			}
			var res v1.ClassifyResponse
			if err := json.Unmarshal(canned[win], &res); err != nil {
				return err
			}
			return sameScores(want[win], res.Label, res.Classification)
		}
	} else {
		w.opsPerCall = batchSize
		checkBatch := func(win int, results []v1.ClassifyWindowResult) error {
			if len(results) != batchSize {
				return fmt.Errorf("%d results for %d windows", len(results), batchSize)
			}
			for k, r := range results {
				if err := sameScores(want[(win+k)%poolSize], r.Label, r.Classification); err != nil {
					return fmt.Errorf("window %d: %w", k, err)
				}
			}
			return nil
		}
		w.prepare = func() error {
			if err := expect(m.imp.ClassifyQuantized); err != nil {
				return err
			}
			for win := range want {
				out := v1.ClassifyBatchResponse{Success: true}
				for k := 0; k < batchSize; k++ {
					r := want[(win+k)%poolSize]
					out.Results = append(out.Results, v1.ClassifyWindowResult{Label: r.Label, Classification: r.Scores})
				}
				blob, err := json.Marshal(out)
				if err != nil {
					return err
				}
				canned = append(canned, blob)
			}
			return nil
		}
		w.call = func(sc spanCtx, i int) (time.Duration, error) {
			win := i % poolSize
			t0 := time.Now()
			res, err := c.ClassifyBatch(sc.context(), pid, in.batch(win), true)
			lat := time.Since(t0)
			if err != nil {
				return lat, err
			}
			return lat, checkBatch(win, res.Results)
		}
		w.generate = func(i int) error {
			win := i % poolSize
			if _, err := in.batchBody(win); err != nil {
				return err
			}
			var res v1.ClassifyBatchResponse
			if err := json.Unmarshal(canned[win], &res); err != nil {
				return err
			}
			return checkBatch(win, res.Results)
		}
	}
	w.finish = func() error { return nil }
	w.close = func() error {
		closeIdle()
		return d.close()
	}
	return w, nil
}

// edgeCheckEvery is how often edge_infer cross-checks its engines
// (rotation 0 and every 256th): often enough to catch a drifting
// kernel, rare enough to leave the rotation time alone.
const edgeCheckEvery = 256

// setupEdge builds the three reference models with every engine; no
// daemon, no HTTP. One op is one rotation: kws, vww, ic × {Classify,
// ClassifyQuantized, EON f32, EON i8, TFLM f32, TFLM i8}, 18 calls in a
// fixed order so the per-op time has one mode.
//
// The engines run on one core, as on the paper's MCUs: convolution row
// partitioning is pinned to one worker. With the pool on, each float
// call is fast or slow by whether a pool goroutine was scheduled in
// time (vww f32: p10 1.2 ms, p50 1.6 ms), the mix shifts from process
// to process, and the rotation time spreads by 17% between runs. The
// pool stays on in the serve workloads, where the daemon runs it.
func setupEdge(e env) (*workload, error) {
	models, err := newModels()
	if err != nil {
		return nil, err
	}
	restore := nn.SetConvWorkers(1)
	in := e.in
	w := &workload{opsPerCall: 1, spanName: "edge.rotation", dials: &dialCounter{}}
	// sigs[m][k] and feats[m][k] are model m's k-th input, raw and
	// after DSP (the engines below Classify take features).
	sigs := make([][]dsp.Signal, len(models))
	feats := make([][]*tensor.F32, len(models))
	w.prepare = func() error {
		for mi, m := range models {
			sigs[mi] = in.signals(m.id)
			for _, sig := range sigs[mi] {
				x, err := m.imp.Features(sig)
				if err != nil {
					return err
				}
				feats[mi] = append(feats[mi], x)
			}
		}
		return nil
	}
	w.call = func(sc spanCtx, i int) (time.Duration, error) {
		var firstErr error
		fail := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		var outs [3][4]*tensor.F32
		t0 := time.Now()
		for mi, m := range models {
			sig, x := sigs[mi][i%len(sigs[mi])], feats[mi][i%len(feats[mi])]
			var err error
			sc.child("core.classify_f32_"+m.id, func() { _, err = m.imp.Classify(sig) })
			fail(err)
			sc.child("core.classify_i8_"+m.id, func() { _, err = m.imp.ClassifyQuantized(sig) })
			fail(err)
			sc.child("eon.run_f32_"+m.id, func() { outs[mi][0], err = m.eonF32.Run(x) })
			fail(err)
			sc.child("eon.run_i8_"+m.id, func() { outs[mi][1], err = m.eonI8.Run(x) })
			fail(err)
			sc.child("tflm.invoke_f32_"+m.id, func() { outs[mi][2], err = m.tflmF32.Invoke(x) })
			fail(err)
			sc.child("tflm.invoke_i8_"+m.id, func() { outs[mi][3], err = m.tflmI8.Invoke(x) })
			fail(err)
		}
		lat := time.Since(t0)
		if firstErr != nil || i%edgeCheckEvery != 0 {
			return lat, firstErr
		}
		for mi, m := range models {
			x := feats[mi][i%len(feats[mi])]
			ref, qref := m.w.Model.Forward(x), m.w.QModel.Forward(x)
			for k, name := range []string{"eon f32", "eon i8", "tflm f32", "tflm i8"} {
				want := ref
				if k%2 == 1 {
					want = qref
				}
				if !sameBits(outs[mi][k].Data, want.Data) {
					return lat, fmt.Errorf("rotation %d: %s %s output differs from the reference forward pass", i, m.id, name)
				}
			}
		}
		return lat, nil
	}
	w.finish = func() error { return nil }
	w.close = func() error {
		nn.SetConvWorkers(restore)
		return nil
	}
	return w, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// uploadLabel labels every uploaded sample.
const uploadLabel = "keyword"

// setupIngest boots a daemon over a durable registry. One op signs a
// fresh acquisition document and uploads it; latency covers the upload.
func setupIngest(e env) (*workload, error) {
	dir, err := stateDir(e.outDir)
	if err != nil {
		return nil, err
	}
	wrap, rt := e.traceHooks()
	d, err := bootDaemon(dir, wrap)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w := &workload{opsPerCall: 1, spanName: "client.call", dials: &dialCounter{}}
	c, closeIdle := d.newClient(w.dials, rt)
	pid, key, in := d.project.ID, d.project.HMACKey, e.in

	uploaded := map[int]string{} // upload number → sample ID the daemon returned

	w.prepare = func() error { return nil }
	w.call = func(sc spanCtx, i int) (time.Duration, error) {
		var doc []byte
		var err error
		sc.child("ingest.sign", func() { doc, err = in.uploadDoc(i, key) })
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := c.UploadSample(sc.context(), pid, client.UploadParams{Label: uploadLabel, Name: "up-" + strconv.Itoa(i)}, doc)
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		uploaded[i] = res.SampleID
		return lat, nil
	}
	canned, err := json.Marshal(v1.UploadResponse{Success: true, SampleID: "0123456789abcdef"})
	if err != nil {
		return nil, err
	}
	w.generate = func(i int) error {
		if _, err := in.uploadDoc(i, key); err != nil {
			return err
		}
		var res v1.UploadResponse
		return json.Unmarshal(canned, &res)
	}
	w.finish = func() error {
		list, err := c.Samples(context.Background(), pid, "", client.Page{Limit: 1})
		if err != nil {
			return err
		}
		if list.Total != len(uploaded) {
			return fmt.Errorf("daemon lists %d samples after %d successful uploads", list.Total, len(uploaded))
		}
		// Read back a spread of uploads straight from the store.
		step := len(uploaded)/8 + 1
		n := 0
		for seq, id := range uploaded {
			if n++; n%step != 0 {
				continue
			}
			sig, err := d.project.Store().LoadSignal(id)
			if err != nil {
				return fmt.Errorf("upload %d: %w", seq, err)
			}
			if !sameBits(sig.Data, in.uploadSignal(seq)) {
				return fmt.Errorf("upload %d: stored signal differs from what was sent", seq)
			}
		}
		return nil
	}
	w.close = func() error {
		defer os.RemoveAll(dir)
		closeIdle()
		version := d.project.Dataset().Version()
		if err := d.close(); err != nil {
			return err
		}
		// A restart must find the same dataset.
		reg, err := project.Open(dir)
		if err != nil {
			return fmt.Errorf("reopen state: %w", err)
		}
		defer reg.Close()
		p, err := reg.GetProject(pid)
		if err != nil {
			return fmt.Errorf("reopen state: %w", err)
		}
		if got := p.Dataset().Version(); got != version {
			return fmt.Errorf("dataset version %s after reopen, %s before", got, version)
		}
		return nil
	}
	return w, nil
}
