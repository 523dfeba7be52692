// Command ei-daemon bridges a device to an ei-studio server, playing the
// role of the platform's device daemon (paper Sec. 4.1: "CLI tools that
// interface with device firmware to ingest data in real time"). Since
// this repository has no physical hardware, the daemon drives a simulated
// firmware (internal/firmware) over its AT-command interface: it issues
// AT+SAMPLE, receives HMAC-signed acquisition documents, and forwards
// them to the project's ingestion endpoint.
//
// Usage:
//
//	ei-daemon -server http://localhost:4800 -key APIKEY -project 1 \
//	          -hmac HMACKEY -label yes -samples 10 -window-ms 1000 \
//	          -signal keyword:yes
//
// -signal selects the simulated sensor: "keyword:<label>" (audio),
// "vibration:normal" or "vibration:fault" (3-axis accelerometer).
//
// With -spool DIR the daemon writes every acquired document to a
// crash-safe local spool (internal/store.Spool) before uploading: at
// boot it recovers the spool — truncating any record torn by a crash —
// and re-uploads whatever the server never acknowledged, so a daemon
// killed mid-session loses at most the window being written.
//
// With -stream the daemon switches from dataset ingestion to live
// inference: it opens a streaming session against the project's trained
// impulse, forwards the simulated sensor feed chunk by chunk, and
// prints the rolling window results and debounced detection events as
// they arrive on the session's event feed:
//
//	ei-daemon -server http://localhost:4800 -key APIKEY -project 1 \
//	          -stream -signal keyword:yes -seconds 12 -events 3
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/client"
	"edgepulse/internal/firmware"
	"edgepulse/internal/ingest"
	"edgepulse/internal/store"
	"edgepulse/internal/synth"
)

func main() {
	server := flag.String("server", "http://localhost:4800", "studio server URL")
	key := flag.String("key", "", "API key")
	projectID := flag.Int("project", 0, "project id")
	hmacKey := flag.String("hmac", "", "project HMAC key (programmed into the device)")
	label := flag.String("label", "", "label for ingested samples")
	samples := flag.Int("samples", 5, "number of windows to sample and upload")
	windowMS := flag.Int("window-ms", 1000, "window length in milliseconds")
	signalKind := flag.String("signal", "keyword:yes", "simulated signal (keyword:<word> | vibration:normal | vibration:fault)")
	seed := flag.Int64("seed", 1, "simulation seed")
	spoolDir := flag.String("spool", "", "crash-safe local spool directory (recovered and drained at boot)")
	streamMode := flag.Bool("stream", false, "live streaming inference against the project's trained impulse instead of dataset ingestion")
	seconds := flag.Float64("seconds", 12, "stream duration in seconds (-stream)")
	events := flag.Int("events", 3, "keyword occurrences embedded in the stream (-stream, keyword signals)")
	strideMS := flag.Int("stride-ms", 0, "classification stride override in ms (-stream, 0 = impulse default)")
	threshold := flag.Float64("threshold", 0, "detection threshold (-stream, 0 = server default)")
	release := flag.Float64("release", 0, "hysteresis re-arm level (-stream, 0 = 0.75*threshold)")
	smooth := flag.Int("smooth", 0, "score moving-average depth in windows (-stream, 0 = server default)")
	suppress := flag.Int("suppress", 0, "refractory windows after a detection (-stream)")
	ignore := flag.String("ignore", "noise", "comma-separated labels that never fire detections (-stream)")
	flag.Parse()
	if *streamMode {
		if *key == "" || *projectID == 0 {
			fmt.Fprintln(os.Stderr, "usage: ei-daemon -stream -server URL -key APIKEY -project N [-signal keyword:yes] [-seconds S] [-events N]")
			os.Exit(2)
		}
	} else if *key == "" || *projectID == 0 || *hmacKey == "" || *label == "" {
		fmt.Fprintln(os.Stderr, "usage: ei-daemon -server URL -key APIKEY -project N -hmac HMACKEY -label L [-samples N]")
		os.Exit(2)
	}

	// A SIGINT/SIGTERM mid-run cancels the upload loop cooperatively —
	// the same cancellation contract the job scheduler uses server-side.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := client.New(*server, client.WithAPIKey(*key))
	if *streamMode {
		if err := runStream(ctx, c, *projectID, *signalKind, streamOpts{
			Seconds: *seconds, Events: *events, Seed: *seed,
			Open: v1.StreamOpenRequest{
				StrideMS:     *strideMS,
				Threshold:    float32(*threshold),
				Release:      float32(*release),
				Smooth:       *smooth,
				Suppress:     *suppress,
				IgnoreLabels: splitLabels(*ignore),
			},
		}); err != nil {
			fatal(err)
		}
		return
	}
	up := &uploader{ctx: ctx, c: c, project: *projectID, label: *label}
	if *spoolDir != "" {
		sp, err := store.OpenSpool(*spoolDir)
		if err != nil {
			fatal(err)
		}
		defer sp.Close()
		up.spool = sp
		// Crash recovery: re-upload documents acquired by a previous
		// run that the server never acknowledged. Each spool entry
		// carries the project and label it was acquired under, so a
		// restart with different flags cannot mislabel them.
		if pending := sp.Pending(); len(pending) > 0 {
			fmt.Printf("spool: recovering %d unacknowledged window(s)\n", len(pending))
			for i, raw := range pending {
				e, err := decodeSpoolEntry(raw)
				if err != nil {
					fatal(fmt.Errorf("spool recovery %d/%d: %w", i+1, len(pending), err))
				}
				id, err := up.sendWithRetry(e.Project, e.Label, e.Doc)
				if err != nil {
					fatal(fmt.Errorf("spool recovery %d/%d: %w", i+1, len(pending), err))
				}
				fmt.Printf("spool: re-uploaded window -> sample %s\n", id)
			}
		}
	}
	dev, err := buildDevice(*signalKind, *hmacKey, *seed)
	if err != nil {
		fatal(err)
	}
	info, err := dev.Execute("AT+INFO?")
	if err != nil {
		fatal(err)
	}
	fmt.Print("connected to device:\n", indent(info))

	for i := 0; i < *samples; i++ {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ei-daemon: interrupted, stopping after", i, "windows")
			return
		}
		out, err := dev.Execute(fmt.Sprintf("AT+SAMPLE=%d", *windowMS))
		if err != nil {
			fatal(err)
		}
		doc := strings.TrimSuffix(strings.TrimSpace(out), "\nOK")
		if up.spool != nil {
			// Durable before network: a crash between here and the
			// acknowledgment replays this window on the next run.
			if err := up.spool.Add(encodeSpoolEntry(*projectID, *label, []byte(doc))); err != nil {
				fatal(err)
			}
		}
		id, err := up.send([]byte(doc))
		if err != nil {
			fatal(fmt.Errorf("sample %d: %w", i, err))
		}
		fmt.Printf("uploaded window %d/%d -> sample %s\n", i+1, *samples, id)
	}
}

// uploader pushes signed acquisition documents to the ingestion
// endpoint, acknowledging each in the spool once the server has it.
type uploader struct {
	ctx     context.Context
	c       *client.Client
	project int
	label   string
	spool   *store.Spool
}

// spoolEntry is what a spool record holds: the signed document plus
// the upload parameters it was acquired under.
type spoolEntry struct {
	Project int    `json:"project"`
	Label   string `json:"label"`
	Doc     []byte `json:"doc"`
}

// encodeSpoolEntry wraps a document with its upload parameters.
func encodeSpoolEntry(project int, label string, doc []byte) []byte {
	blob, _ := json.Marshal(spoolEntry{Project: project, Label: label, Doc: doc})
	return blob
}

// decodeSpoolEntry parses a spool record.
func decodeSpoolEntry(raw []byte) (spoolEntry, error) {
	var e spoolEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return spoolEntry{}, fmt.Errorf("corrupt spool entry: %w", err)
	}
	return e, nil
}

// send uploads one document under the daemon's current flags.
func (u *uploader) send(doc []byte) (string, error) {
	return u.sendAs(u.project, u.label, doc)
}

// sendAs uploads one document and, on success, advances the spool
// checkpoint past it. A duplicate rejection (the window was uploaded
// just before a crash) counts as success: the server has the data.
func (u *uploader) sendAs(project int, label string, doc []byte) (string, error) {
	uploaded, err := u.c.UploadSample(u.ctx, project, client.UploadParams{
		Label: label, Format: "acquisition",
	}, doc)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Code == v1.CodeConflict {
			if u.spool != nil {
				if err := u.spool.Ack(1); err != nil {
					return "", err
				}
			}
			return "(duplicate, already ingested)", nil
		}
		return "", err
	}
	if u.spool != nil {
		if err := u.spool.Ack(1); err != nil {
			return "", err
		}
	}
	return uploaded.SampleID, nil
}

// sendWithRetry re-uploads one recovered spool entry, riding through a
// server that is still warming up or shedding load (429/503) with the
// client's shared retry schedule. The client itself won't replay POSTs
// on 503, but spool re-uploads are safe to replay: ingestion dedup
// turns an already-landed window into a 409, which sendAs treats as an
// acknowledgment.
func (u *uploader) sendWithRetry(project int, label string, doc []byte) (string, error) {
	const maxAttempts = 6
	var lastErr error
	for attempt := 0; ; attempt++ {
		id, err := u.sendAs(project, label, doc)
		if err == nil {
			return id, nil
		}
		lastErr = err
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) ||
			(apiErr.Status != http.StatusTooManyRequests && apiErr.Status != http.StatusServiceUnavailable) {
			return "", err
		}
		if attempt+1 >= maxAttempts {
			return "", lastErr
		}
		select {
		case <-u.ctx.Done():
			return "", u.ctx.Err()
		case <-time.After(client.RetryDelay(attempt, apiErr)):
		}
	}
}

// buildDevice wires a synthetic sensor into the simulated firmware.
func buildDevice(kind, hmacKey string, seed int64) (*firmware.Device, error) {
	rng := rand.New(rand.NewSource(seed))
	parts := strings.SplitN(kind, ":", 2)
	switch parts[0] {
	case "keyword":
		word := "yes"
		if len(parts) == 2 {
			word = parts[1]
		}
		const rate = 8000
		return &firmware.Device{
			Name: "sim-mic-01", Type: "NANO33BLE",
			Sensors: []ingest.Sensor{{Name: "audio", Units: "wav"}},
			RateHz:  rate, HMACKey: hmacKey,
			Sample: func(n int) [][]float64 {
				sig, err := synth.Keyword(word, rate, float64(n)/rate+0.01, 0.03, rng)
				if err != nil {
					sig, _ = synth.Keyword("noise", rate, float64(n)/rate+0.01, 0.3, rng)
				}
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = []float64{float64(sig.Data[i])}
				}
				return rows
			},
		}, nil
	case "vibration":
		fault := len(parts) == 2 && parts[1] == "fault"
		const rate = 100
		return &firmware.Device{
			Name: "sim-accel-01", Type: "SLATESAFETY_BAND",
			Sensors: []ingest.Sensor{
				{Name: "accX", Units: "m/s2"}, {Name: "accY", Units: "m/s2"}, {Name: "accZ", Units: "m/s2"},
			},
			RateHz: rate, HMACKey: hmacKey,
			Sample: func(n int) [][]float64 {
				sig := synth.Vibration(rate, float64(n)/rate+0.01, fault, rng)
				rows := make([][]float64, n)
				for i := range rows {
					rows[i] = []float64{
						float64(sig.Data[i*3]), float64(sig.Data[i*3+1]), float64(sig.Data[i*3+2]),
					}
				}
				return rows
			},
		}, nil
	default:
		return nil, fmt.Errorf("unknown signal kind %q", kind)
	}
}

// streamOpts bundles the -stream mode knobs.
type streamOpts struct {
	Seconds float64
	Events  int
	Seed    int64
	Open    v1.StreamOpenRequest
}

// runStream opens a live inference session, forwards the simulated
// sensor feed in stride-sized chunks, and renders the session's event
// feed — rolling results and debounced detections — until the source
// runs dry and the session is closed.
func runStream(ctx context.Context, c *client.Client, projectID int, kind string, opts streamOpts) error {
	sess, err := c.OpenStream(ctx, projectID, opts.Open)
	if err != nil {
		return fmt.Errorf("opening stream: %w", err)
	}
	fmt.Printf("session %s: %d-sample windows every %d samples at %d Hz, classes %v\n",
		sess.ID(), sess.Info.WindowSamples, sess.Info.StrideSamples, sess.Info.Rate, sess.Info.Classes)

	src, err := buildSource(kind, sess.Info.Rate, opts)
	if err != nil {
		return err
	}
	if src.Axes() != sess.Info.Axes {
		return fmt.Errorf("signal %q has %d axes, impulse expects %d", kind, src.Axes(), sess.Info.Axes)
	}

	// Tail the event feed concurrently with the pushes, like a device UI.
	// The tail runs on a context that survives SIGTERM: on interrupt the
	// push loop stops, the session is closed (which flushes queued frames
	// server-side and emits the terminal event), and only then is the
	// tail released — cancelling it with ctx would drop the terminal
	// event and the flush stats on every graceful shutdown.
	tailCtx, cancelTail := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelTail()
	tailDone := make(chan error, 1)
	go func() {
		tailDone <- sess.Events(tailCtx, 0, func(e v1.StreamEvent) error {
			switch e.Type {
			case "result":
				fmt.Printf("  window @ %6.2fs  %-8s %.2f\n",
					float64(e.WindowStart)/float64(sess.Info.Rate), e.Label, e.Score)
			case "detection":
				fmt.Printf("*** detected %q (smoothed %.2f) at %.2fs\n",
					e.Label, e.Score, float64(e.WindowStart)/float64(sess.Info.Rate))
			case "state":
				fmt.Printf("  session %s %s\n", e.Status, e.Reason)
			}
			return nil
		})
	}()

	// Push until the source runs dry or the run is interrupted; the
	// client's retry machinery absorbs 429 backpressure responses.
	chunk := sess.Info.StrideSamples * sess.Info.Axes
	for ctx.Err() == nil {
		frames := src.Next(chunk)
		if frames == nil {
			break
		}
		if _, err := sess.Push(ctx, frames); err != nil {
			if ctx.Err() != nil {
				break // interrupted mid-push: fall through to the graceful close
			}
			return fmt.Errorf("pushing frames: %w", err)
		}
	}
	// Shutdown ordering: close the session first (bounded, surviving the
	// interrupt) so the server flushes queued frames and emits the
	// terminal event, then wait for the tail to deliver it.
	closeCtx, cancelClose := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancelClose()
	closed, err := sess.Close(closeCtx)
	if err != nil {
		cancelTail()
		<-tailDone
		return fmt.Errorf("closing stream: %w", err)
	}
	select {
	case err := <-tailDone:
		if err != nil && ctx.Err() == nil {
			return fmt.Errorf("event feed: %w", err)
		}
	case <-closeCtx.Done():
		// The feed never saw the terminal event within the drain budget;
		// release it rather than hang shutdown.
		cancelTail()
		<-tailDone
	}
	fmt.Printf("closed: %d frames in, %d windows, %d detections, %d dropped\n",
		closed.Stats.FramesIn, closed.Stats.Windows, closed.Stats.Detections, closed.Stats.Dropped)
	return nil
}

// buildSource synthesizes the continuous feed for -stream mode at the
// impulse's sample rate.
func buildSource(kind string, rate int, opts streamOpts) (*synth.Source, error) {
	parts := strings.SplitN(kind, ":", 2)
	switch parts[0] {
	case "keyword":
		word := "yes"
		if len(parts) == 2 {
			word = parts[1]
		}
		src, truth, err := synth.NewStreamSource(word, rate, opts.Seconds, opts.Events, 0.02, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, ev := range truth {
			fmt.Printf("  ground truth: %q at %.2fs..%.2fs\n",
				ev.Label, float64(ev.StartSample)/float64(rate), float64(ev.EndSample)/float64(rate))
		}
		return src, nil
	case "vibration":
		fault := len(parts) == 2 && parts[1] == "fault"
		return synth.NewVibrationSource(rate, opts.Seconds, fault, opts.Seed), nil
	default:
		return nil, fmt.Errorf("unknown signal kind %q", kind)
	}
}

// splitLabels parses a comma-separated label list, dropping empties.
func splitLabels(s string) []string {
	var out []string
	for _, l := range strings.Split(s, ",") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}

func indent(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ei-daemon:", err)
	os.Exit(1)
}
