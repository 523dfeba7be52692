package eim

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"testing"

	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

func runnerImpulse(t testing.TB) (*core.Impulse, *data.Dataset) {
	t.Helper()
	ds, err := synth.KWSDataset(2, 14, 8000, 0.5, 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	imp := core.New("runner")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1}
	block, _ := dsp.New("mfe", map[string]float64{"num_filters": 16, "fft_length": 128})
	imp.UseDSP(block)
	imp.Classes = ds.Labels()
	shape, _ := imp.FeatureShape()
	model, _ := models.Conv1DStack(shape[0], shape[1], 2, 8, 16, len(imp.Classes))
	nn.InitWeights(model, 2)
	imp.AttachClassifier(model)
	if _, err := imp.Train(ds, trainer.Config{Epochs: 8, LearningRate: 0.005, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := imp.Quantize(ds); err != nil {
		t.Fatal(err)
	}
	return imp, ds
}

// serve runs a server for imp on a fresh Unix socket and returns the
// socket's path.
func serve(t *testing.T, imp *core.Impulse) string {
	t.Helper()
	srv, err := NewServer(imp)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "model.eim.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return sock
}

// dial connects a client to a served socket.
func dial(t testing.TB, sock string) *Client {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

func startServer(t *testing.T, imp *core.Impulse) *Client {
	t.Helper()
	return dial(t, serve(t, imp))
}

func TestHello(t *testing.T) {
	imp, _ := runnerImpulse(t)
	c := startServer(t, imp)
	info, err := c.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "runner" || len(info.Classes) != 2 {
		t.Fatalf("info: %+v", info)
	}
	if info.InputCount != 4000 || info.Frequency != 8000 {
		t.Fatalf("geometry: %+v", info)
	}
	if !info.Quantized {
		t.Error("quantized flag lost")
	}
}

func TestClassifyOverSocket(t *testing.T) {
	imp, ds := runnerImpulse(t)
	c := startServer(t, imp)
	correct, total := 0, 0
	for _, h := range ds.List(data.Testing) {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := c.Classify(s.Signal.Data, false)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Label == s.Label {
			correct++
		}
		total++
		if len(reply.Classification) != 2 {
			t.Fatalf("classification: %v", reply.Classification)
		}
	}
	if float64(correct)/float64(total) < 0.7 {
		t.Fatalf("socket accuracy %d/%d", correct, total)
	}
}

func TestClassifyQuantizedOverSocket(t *testing.T) {
	imp, ds := runnerImpulse(t)
	c := startServer(t, imp)
	s, err := ds.Get(ds.List(data.Testing)[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Classify(s.Signal.Data, true)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Label == "" {
		t.Fatal("empty label from quantized path")
	}
}

func TestMultipleClientsSequential(t *testing.T) {
	imp, ds := runnerImpulse(t)
	c1 := startServer(t, imp)
	s, err := ds.Get(ds.List(data.Testing)[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c1.Classify(s.Signal.Data, false); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave hello and classify.
	if _, err := c1.Hello(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Classify(s.Signal.Data, false); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleClientsConcurrent: connections are served one goroutine
// each on one shared impulse, so clients classifying at once, in both
// precisions, must each get the in-process result bit for bit.
func TestMultipleClientsConcurrent(t *testing.T) {
	imp, ds := runnerImpulse(t)
	sock := serve(t, imp)
	var wins [][]float32
	for _, h := range ds.List(data.Testing)[:4] {
		s, err := ds.Get(h.ID)
		if err != nil {
			t.Fatal(err)
		}
		wins = append(wins, s.Signal.Data)
	}
	const clients, rounds = 4, 6
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		client := dial(t, sock)
		go func() {
			errs <- func() error {
				for r := 0; r < rounds; r++ {
					win, quantized := wins[(c+r)%len(wins)], (c+r)%2 == 1
					got, err := client.Classify(win, quantized)
					if err != nil {
						return err
					}
					want, err := imp.ClassifyWindow(imp.SignalFor(win), quantized)
					if err != nil {
						return err
					}
					if got.Label != want.Label {
						return fmt.Errorf("client %d round %d: label %q, in-process %q", c, r, got.Label, want.Label)
					}
					for cl, v := range want.Scores {
						if math.Float32bits(got.Classification[cl]) != math.Float32bits(v) {
							return fmt.Errorf("client %d round %d: %s scores %v, in-process %v", c, r, cl, got.Classification[cl], v)
						}
					}
					if _, err := client.Hello(); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestHandleRequestDirect(t *testing.T) {
	imp, _ := runnerImpulse(t)
	srv, err := NewServer(imp)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown method.
	resp := srv.HandleRequest(Request{ID: 7})
	if resp.Success || resp.ID != 7 {
		t.Fatalf("unknown method response: %+v", resp)
	}
	// Hello direct.
	resp = srv.HandleRequest(Request{ID: 8, Hello: true})
	if !resp.Success || resp.Info == nil {
		t.Fatalf("hello: %+v", resp)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(core.New("empty")); err == nil {
		t.Error("accepted unconfigured impulse")
	}
}
