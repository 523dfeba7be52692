package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"edgepulse/internal/api"
	"edgepulse/internal/bench"
	"edgepulse/internal/client"
	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/eon"
	"edgepulse/internal/jobs"
	"edgepulse/internal/project"
	"edgepulse/internal/resilience"
	"edgepulse/internal/tflm"
)

// model is one of the paper's reference nets (internal/bench, seeded
// random weights) wired as an impulse, plus the engines that can run it.
type model struct {
	id  string
	w   bench.Workload
	imp *core.Impulse
	// Engines, built by compile; nil on the serve workloads.
	eonF32, eonI8   *eon.Program
	tflmF32, tflmI8 *tflm.Interpreter
}

// newModel builds the impulse for "kws", "vww" or "ic" with the same
// DSP parameters internal/bench costs its tables with.
func newModel(id string) (*model, error) {
	var (
		w     bench.Workload
		block dsp.Block
		input core.InputBlock
		err   error
	)
	switch id {
	case "kws":
		input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, FrequencyHz: sampleRate, Axes: 1}
		block, err = dsp.NewMFCC(map[string]float64{
			"frame_length": 0.032, "frame_stride": 0.02,
			"num_filters": 32, "num_cepstral": 10, "fft_length": 512,
		})
		if err == nil {
			w, err = bench.KWSWorkload()
		}
	case "vww":
		input = core.InputBlock{Kind: core.ImageInput, Width: 96, Height: 96, Axes: 3}
		block, err = dsp.NewImage(map[string]float64{"width": 96, "height": 96})
		if err == nil {
			w, err = bench.VWWWorkload()
		}
	case "ic":
		input = core.InputBlock{Kind: core.ImageInput, Width: 32, Height: 32, Axes: 3}
		block, err = dsp.NewImage(map[string]float64{"width": 32, "height": 32})
		if err == nil {
			w, err = bench.ICWorkload()
		}
	default:
		return nil, fmt.Errorf("no reference model %q", id)
	}
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", id, err)
	}
	imp := core.New(id)
	imp.Input = input
	imp.UseDSP(block)
	for c := 0; c < w.Model.NumClasses; c++ {
		imp.Classes = append(imp.Classes, fmt.Sprintf("class%02d", c))
	}
	if err := imp.AttachClassifier(w.Model); err != nil {
		return nil, fmt.Errorf("model %s: %w", id, err)
	}
	imp.QModel = w.QModel
	return &model{id: id, w: w, imp: imp}, nil
}

// compile builds the EON programs and TFLM interpreters for both
// precisions.
func (m *model) compile() error {
	fmf, qmf := tflm.ModelFileFromFloat(m.w.Model), tflm.ModelFileFromQuant(m.w.QModel)
	var err error
	if m.eonF32, err = eon.Compile(fmf); err != nil {
		return fmt.Errorf("model %s: %w", m.id, err)
	}
	if m.eonI8, err = eon.Compile(qmf); err != nil {
		return fmt.Errorf("model %s: %w", m.id, err)
	}
	if m.tflmF32, err = tflm.NewInterpreter(fmf); err != nil {
		return fmt.Errorf("model %s: %w", m.id, err)
	}
	if m.tflmI8, err = tflm.NewInterpreter(qmf); err != nil {
		return fmt.Errorf("model %s: %w", m.id, err)
	}
	return nil
}

// newModels builds and compiles all three reference models.
func newModels() ([]*model, error) {
	var out []*model
	for _, id := range []string{"kws", "vww", "ic"} {
		m, err := newModel(id)
		if err != nil {
			return nil, err
		}
		if err := m.compile(); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// daemon is an in-process ei-studio: registry, scheduler and api.Server
// behind a loopback listener, wired as cmd/ei-studio wires them (gate
// and watchdog on, request log formatted but discarded) except that the
// rate limit is off, as in cmd/ei-fleet, so the run measures the
// platform and not one API key's budget.
type daemon struct {
	registry *project.Registry
	sched    *jobs.Scheduler
	srv      *api.Server
	httpSrv  *http.Server
	served   chan error
	url      string
	apiKey   string
	project  *project.Project
}

// bootDaemon starts a daemon with one user and one project. A non-empty
// dir makes the registry durable (project.Open). wrap, when not nil,
// wraps the server's handler (the traced run's span middleware).
func bootDaemon(dir string, wrap func(http.Handler) http.Handler) (d *daemon, err error) {
	d = &daemon{registry: project.NewRegistry()}
	if dir != "" {
		if d.registry, err = project.Open(dir); err != nil {
			return nil, fmt.Errorf("open state: %w", err)
		}
	}
	d.sched = jobs.NewScheduler(jobs.Config{MinWorkers: 1, MaxWorkers: 4, QueueSize: 64, MaxQueuedPerTag: 16})
	d.srv = api.NewServer(d.registry, d.sched,
		api.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		api.WithRateLimit(0, 0),
		api.WithGate(resilience.GateConfig{}),
		api.WithWatchdog(2*time.Minute, false),
	)
	defer func() {
		if err != nil {
			d.srv.Close()
			d.sched.Shutdown()
			d.registry.Close()
		}
	}()
	user, err := d.registry.CreateUser("bench")
	if err != nil {
		return nil, err
	}
	d.apiKey = user.APIKey
	if d.project, err = d.registry.CreateProject("bench", user.ID); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := d.srv.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	d.httpSrv = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.httpSrv.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	return d, nil
}

// close stops the daemon and waits for its serving goroutine.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.httpSrv.Shutdown(ctx)
	if serveErr := <-d.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	d.srv.Close()
	d.sched.Shutdown()
	if cerr := d.registry.Close(); err == nil {
		err = cerr
	}
	return err
}

// stateDir makes a fresh directory for durable state under the
// benchmark's out directory, so the run writes only inside its checkout.
func stateDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "state-")
}

// dialCounter counts the TCP connections the load generator opens.
type dialCounter struct{ n atomic.Int64 }

func (c *dialCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c.n.Add(1)
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// newClient builds the caller's API client: one keep-alive connection,
// every dial counted, and no retries, so a refused or failed request is
// a miss and not a wait. rt, when not nil, wraps the transport (the
// traced run's span tagger).
func (d *daemon) newClient(dials *dialCounter, rt func(http.RoundTripper) http.RoundTripper) (*client.Client, func()) {
	tr := &http.Transport{
		DialContext:         dials.dial,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
	}
	var transport http.RoundTripper = tr
	if rt != nil {
		transport = rt(tr)
	}
	c := client.New(d.url,
		client.WithAPIKey(d.apiKey),
		client.WithHTTPClient(&http.Client{Transport: transport}),
		client.WithRetries(0),
	)
	return c, tr.CloseIdleConnections
}
