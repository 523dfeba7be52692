package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/eon"
	"edgepulse/internal/fft"
	"edgepulse/internal/ingest"
	"edgepulse/internal/nn"
	"edgepulse/internal/resilience"
	"edgepulse/internal/store"
	"edgepulse/internal/tensor"
	"edgepulse/internal/tflm"
)

// Probe limits: a probe repeats its call until its time slice is used
// up, but at least probeMinCalls times (slow calls still get a median)
// and at most probeMaxCalls (fast calls do not flood the trace).
const (
	probeMinCalls = 5
	probeMaxCalls = 200
)

// layerReplay times the public functions of every serving layer on the
// run's seeded inputs, one layer at a time, from outside. It is the
// same for every workload: the layers do not know which workload the
// end-to-end passes ran.
type layerReplay struct {
	rec     *recorder
	slice   time.Duration
	metrics map[string]metric
	err     error
}

// probe measures one layer call. prep (may be nil) readies input i and
// is not timed; call is. batch > 1 means call repeats the operation
// that many times because one is too short to time alone. The metric is
// the median per operation, and every call leaves a span named after it.
func (lr *layerReplay) probe(name, unit string, batch int, prep func(i int), call func(i int) error) {
	if lr.err != nil {
		return
	}
	root := lr.rec.begin("replay", 0, 0)
	var durs []time.Duration
	start := time.Now()
	for i := 0; i < probeMaxCalls && (i < probeMinCalls || time.Since(start) < lr.slice); i++ {
		if prep != nil {
			prep(i)
		}
		id := lr.rec.begin(name, root, i)
		err := call(i)
		d := lr.rec.end(id)
		if err != nil {
			lr.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		durs = append(durs, d/time.Duration(batch))
	}
	lr.rec.end(root)
	sortDurations(durs)
	med := median(durs)
	var v float64
	switch unit {
	case "ns":
		v = float64(med)
	case "us":
		v = us(med)
	default:
		v = ms(med)
	}
	lr.metrics[name] = metric{v, unit}
}

func (lr *layerReplay) count(name, unit string, v float64) { lr.metrics[name] = metric{v, unit} }

func (lr *layerReplay) value(name string) float64 { return lr.metrics[name].Value }

// layerFixture is what the replay calls into: the three reference
// models with every engine, an in-memory daemon serving the KWS
// impulse, a durable daemon to upload into, and a bare store.
type layerFixture struct {
	models   []*model
	mem, dur *daemon
	dir      string
	st       *store.Store
	ds       *data.Dataset
}

func newLayerFixture(outDir string) (f *layerFixture, err error) {
	f = &layerFixture{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.models, err = newModels(); err != nil {
		return nil, err
	}
	if f.mem, err = bootDaemon("", nil); err != nil {
		return nil, err
	}
	f.mem.project.SetImpulse(f.models[0].imp)
	if f.dir, err = stateDir(outDir); err != nil {
		return nil, err
	}
	if f.dur, err = bootDaemon(filepath.Join(f.dir, "daemon"), nil); err != nil {
		return nil, err
	}
	if f.st, err = store.Open(filepath.Join(f.dir, "store"), store.Options{}); err != nil {
		return nil, err
	}
	f.ds, err = data.Open(f.st, 0)
	return f, err
}

func (f *layerFixture) close() {
	if f.mem != nil {
		f.mem.close()
	}
	if f.dur != nil {
		f.dur.close()
	}
	if f.st != nil {
		f.st.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// handlerCall replays one request through a daemon's whole handler
// chain into a ResponseRecorder: no socket, no client.
type handlerCall struct {
	d   *daemon
	req *http.Request
	rr  *httptest.ResponseRecorder
}

func (h *handlerCall) prep(method, path string, body []byte) {
	h.req = httptest.NewRequest(method, v1.Prefix+path, bytes.NewReader(body))
	h.req.Header.Set("x-api-key", h.d.apiKey)
	h.req.Header.Set("Content-Type", "application/json")
	h.rr = httptest.NewRecorder()
}

func (h *handlerCall) serve(want int) error {
	h.d.srv.Handler().ServeHTTP(h.rr, h.req)
	if h.rr.Code != want {
		return fmt.Errorf("status %d, want %d: %s", h.rr.Code, want, h.rr.Body.String())
	}
	return nil
}

// strictDecode decodes a body the way the API's decodeBodyLimit does.
func strictDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// run replays every layer and fills lr.metrics.
func (lr *layerReplay) run(f *layerFixture, in *inputs) error {
	kws := f.models[0]
	memPath := "/projects/" + strconv.Itoa(f.mem.project.ID)
	durPath := "/projects/" + strconv.Itoa(f.dur.project.ID)

	// --- api: whole handler chain, then its JSON halves alone ---
	// (The prep steps drop errors: they marshal or extract the same
	// finite seeded inputs the workloads already checked.)
	var body []byte
	hc := &handlerCall{d: f.mem}
	lr.probe("api.handler_classify_ms", "ms", 1, func(i int) {
		body, _ = in.classifyBody(i % poolSize)
		hc.prep(http.MethodPost, memPath+"/classify", body)
	}, func(int) error { return hc.serve(http.StatusOK) })
	lr.probe("api.handler_batch_ms", "ms", 1, func(i int) {
		body, _ = in.batchBody(i % poolSize)
		hc.prep(http.MethodPost, memPath+"/classify/batch", body)
	}, func(int) error { return hc.serve(http.StatusOK) })
	up := &handlerCall{d: f.dur}
	lr.probe("api.handler_upload_ms", "ms", 1, func(i int) {
		body, _ = in.uploadDoc(i, f.dur.project.HMACKey)
		up.prep(http.MethodPost, durPath+"/data?label="+uploadLabel+"&name=h-"+strconv.Itoa(i), body)
	}, func(int) error { return up.serve(http.StatusCreated) })
	lr.probe("api.overhead_us", "us", 1, func(int) {
		hc.prep(http.MethodGet, memPath, nil)
	}, func(int) error { return hc.serve(http.StatusOK) })
	lr.probe("api.decode_classify_ms", "ms", 1, func(i int) {
		body, _ = in.classifyBody(i % poolSize)
	}, func(int) error { return strictDecode(body, &v1.ClassifyRequest{}) })
	lr.probe("api.decode_batch_ms", "ms", 1, func(i int) {
		body, _ = in.batchBody(i % poolSize)
	}, func(int) error { return strictDecode(body, &v1.ClassifyBatchRequest{}) })
	var reply v1.ClassifyResponse
	lr.probe("api.encode_classify_us", "us", 1, func(i int) {
		res, _ := kws.imp.Classify(kwsSignal(in.pool[i%poolSize]))
		reply = v1.ClassifyResponse{Success: true, Label: res.Label, Classification: res.Scores}
	}, func(int) error { return json.NewEncoder(io.Discard).Encode(reply) })

	// --- resilience: the admission gate alone ---
	gate := resilience.NewGate(resilience.GateConfig{})
	const gateBatch = 1000
	lr.probe("resilience.gate_acquire_ns", "ns", gateBatch, nil, func(int) error {
		for k := 0; k < gateBatch; k++ {
			release, err := gate.Acquire(resilience.ClassInteractive)
			if err != nil {
				return err
			}
			release()
		}
		return nil
	})

	// --- core, dsp, nn, quant, eon, tflm: per reference model, on one
	// core as edge_infer runs them (see setupEdge) ---
	restore := nn.SetConvWorkers(1)
	defer nn.SetConvWorkers(restore)
	for _, m := range f.models {
		m := m
		sigs := in.signals(m.id)
		sig := func(i int) dsp.Signal { return sigs[i%len(sigs)] }
		var x *tensor.F32
		feats := func(i int) { x, _ = m.imp.Features(sig(i)) }

		lr.probe("core.classify_f32_us_"+m.id, "us", 1, nil, func(i int) error {
			_, err := m.imp.Classify(sig(i))
			return err
		})
		lr.probe("core.classify_i8_us_"+m.id, "us", 1, nil, func(i int) error {
			_, err := m.imp.ClassifyQuantized(sig(i))
			return err
		})
		lr.probe("dsp.extract_us_"+m.id, "us", 1, nil, func(i int) error {
			_, _, err := m.imp.ExtractComposite(sig(i))
			return err
		})
		lr.probe("nn.forward_us_"+m.id, "us", 1, feats, func(int) error {
			m.w.Model.Forward(x)
			return nil
		})
		lr.probe("quant.forward_us_"+m.id, "us", 1, feats, func(int) error {
			m.w.QModel.Forward(x)
			return nil
		})
		lr.probe("eon.compile_ms_"+m.id, "ms", 1, nil, func(int) error {
			if _, err := eon.Compile(tflm.ModelFileFromFloat(m.w.Model)); err != nil {
				return err
			}
			_, err := eon.Compile(tflm.ModelFileFromQuant(m.w.QModel))
			return err
		})
		lr.probe("eon.run_f32_us_"+m.id, "us", 1, feats, func(int) error {
			_, err := m.eonF32.Run(x)
			return err
		})
		lr.probe("eon.run_i8_us_"+m.id, "us", 1, feats, func(int) error {
			_, err := m.eonI8.Run(x)
			return err
		})
		lr.probe("tflm.invoke_f32_us_"+m.id, "us", 1, feats, func(int) error {
			_, err := m.tflmF32.Invoke(x)
			return err
		})
		lr.probe("tflm.invoke_i8_us_"+m.id, "us", 1, feats, func(int) error {
			_, err := m.tflmI8.Invoke(x)
			return err
		})
		var macs int64
		for _, s := range m.w.Specs {
			macs += s.MACs
		}
		lr.count("nn.macs_"+m.id, "count", float64(macs))
		lr.count("eon.arena_bytes_"+m.id, "bytes", float64(m.eonF32.ArenaBytes()))
	}
	lr.probe("core.batch8_per_window_us", "us", batchSize, nil, func(i int) error {
		_, err := kws.imp.ClassifyBatch(in.batch(i%poolSize), true)
		return err
	})

	// --- dsp and fft below the impulse ---
	mfe, err := dsp.NewMFE(map[string]float64{"frame_length": 0.032, "frame_stride": 0.02, "num_filters": 40, "fft_length": 512})
	if err != nil {
		return err
	}
	lr.probe("dsp.mfe_us", "us", 1, nil, func(i int) error {
		_, err := mfe.Extract(kwsSignal(in.pool[i%poolSize]))
		return err
	})
	const fftSize, fftStride = 512, 320 // the KWS MFCC's frames: 32 ms every 20 ms
	plan, err := fft.NewRealPlan(fftSize)
	if err != nil {
		return err
	}
	scratch, spectrum := plan.Scratch(), make([]float32, plan.Bins())
	lr.probe("fft.power_spectrum_us", "us", 1, nil, func(i int) error {
		win := in.pool[i%poolSize]
		for off := 0; off+fftSize <= len(win); off += fftStride {
			if err := plan.PowerSpectrumInto(spectrum, win[off:off+fftSize], scratch); err != nil {
				return err
			}
		}
		return nil
	})

	// --- ingest, data, store: the write path below the upload handler ---
	const key = "bench-layer-key"
	var payload ingest.Payload
	var doc []byte
	// Upload numbers here start past the handler replay's, so every
	// document is new to whichever dataset receives it.
	seq := func(i int) int { return 10*probeMaxCalls + i }
	lr.probe("ingest.sign_ms", "ms", 1, func(i int) { payload = in.payload(seq(i)) }, func(i int) error {
		_, err := ingest.SignJSON(payload, key, iatBase+int64(i))
		return err
	})
	lr.probe("ingest.verify_ms", "ms", 1, func(i int) { doc, _ = in.uploadDoc(seq(i), key) }, func(int) error {
		_, err := ingest.Verify(doc, key)
		return err
	})
	var imported []string
	lr.probe("data.import_acquisition_ms", "ms", 1, func(i int) { doc, _ = in.uploadDoc(seq(i), key) }, func(i int) error {
		id, err := f.ds.ImportAcquisition("imp-"+strconv.Itoa(i), uploadLabel, doc, key)
		imported = append(imported, id)
		return err
	})
	var sample *data.Sample
	lr.probe("store.append_ms", "ms", 1, func(i int) {
		sample = &data.Sample{
			ID: "append-" + strconv.Itoa(i), Name: "append", Label: uploadLabel, Category: data.Training,
			Signal: kwsSignal(in.uploadSignal(seq(i))), AddedAt: time.Unix(iatBase, 0),
		}
	}, func(int) error { return f.st.Append(sample) })
	lr.probe("store.load_signal_us", "us", 1, nil, func(i int) error {
		_, err := f.st.LoadSignal(imported[i%len(imported)])
		return err
	})
	if lr.err != nil {
		return lr.err
	}
	var segBytes int64
	segments := f.st.Segments()
	for _, idx := range segments {
		fi, err := os.Stat(store.SegmentPath(f.st.Dir(), idx))
		if err != nil {
			return err
		}
		segBytes += fi.Size()
	}
	lr.count("store.bytes_per_sample", "bytes", float64(segBytes)/float64(f.st.Len()))
	lr.count("store.segments", "count", float64(len(segments)))

	// --- what is left of a layer once the layers below are taken out ---
	lr.count("api.self_classify_ms", "ms", lr.value("api.handler_classify_ms")-lr.value("core.classify_f32_us_kws")/1000)
	lr.count("core.classify_self_us_kws", "us",
		lr.value("core.classify_f32_us_kws")-lr.value("dsp.extract_us_kws")-lr.value("nn.forward_us_kws"))
	return nil
}
