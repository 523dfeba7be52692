package api

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/core"
	"edgepulse/internal/data"
	"edgepulse/internal/deploy"
	"edgepulse/internal/device"
	"edgepulse/internal/dsp"
	"edgepulse/internal/jobs"
	"edgepulse/internal/profiler"
	"edgepulse/internal/project"
	"edgepulse/internal/renode"
	"edgepulse/internal/tuner"
)

// Default and maximum page sizes for list endpoints.
const (
	defaultPageSize = 100
	MaxPageSize     = 1000
)

func (s *Server) handleCreateUser(w http.ResponseWriter, r *http.Request) {
	var req v1.CreateUserRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	u, err := s.registry.CreateUser(req.Name)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusCreated, v1.CreateUserResponse{
		Success: true, ID: u.ID, Name: u.Name, APIKey: u.APIKey,
	})
}

// handleBlocks serves the impulse design catalog: every registered DSP
// and learn block type with its parameter schema, sorted so the
// response bytes are deterministic across processes.
func (s *Server) handleBlocks(w http.ResponseWriter, r *http.Request) {
	out := v1.BlocksResponse{Success: true}
	for _, name := range dsp.Names() {
		defaults, err := dsp.Defaults(name)
		if err != nil {
			continue // a block type whose zero config is invalid has no static schema
		}
		out.DSP = append(out.DSP, v1.BlockInfo{Type: name, Params: blockParams(defaults)})
	}
	for _, t := range core.LearnTypes() {
		out.Learn = append(out.Learn, v1.BlockInfo{
			Type: t.Type, Description: t.Description,
			Trainable: t.Trainable, Params: blockParams(t.Defaults),
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// blockParams renders a default-parameter map as a sorted schema list.
func blockParams(defaults map[string]float64) []v1.BlockParam {
	keys := make([]string, 0, len(defaults))
	for k := range defaults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]v1.BlockParam, 0, len(keys))
	for _, k := range keys {
		out = append(out, v1.BlockParam{Name: k, Default: defaults[k]})
	}
	return out
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	var out []v1.Device
	for _, t := range device.All() {
		out = append(out, v1.Device{
			ID: t.ID, Name: t.Name, CPU: t.CPU, ClockHz: t.ClockHz,
			FlashKB: t.FlashBytes >> 10, RAMKB: t.RAMBytes >> 10,
		})
	}
	WriteJSON(w, http.StatusOK, v1.DevicesResponse{Success: true, Devices: out})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, u *project.User) {
	out := s.metrics.snapshot()
	m := s.sched.Metrics()
	sm := v1.SchedulerMetrics{
		Workers: m.Workers, Queued: m.Queued,
		Completed: m.Completed, Failed: m.FailedN,
		Cancelled: m.CancelledN, Retries: m.Retries,
		QueuedByPriority: map[string]int{},
	}
	for p, depth := range m.QueuedByPriority {
		sm.QueuedByPriority[jobs.Priority(p).String()] = depth
	}
	for _, k := range m.Kinds {
		sm.Kinds = append(sm.Kinds, v1.JobKindMetrics{
			Kind: k.Kind, Count: k.Count, AvgWaitMS: k.AvgWaitMS, AvgRunMS: k.AvgRunMS,
		})
	}
	out.Scheduler = sm
	sp := s.streams.Snapshot()
	out.StreamPlane = &v1.StreamPlaneMetrics{
		ActiveSessions: sp.ActiveSessions, PeakSessions: sp.PeakSessions,
		Opened: sp.Opened, Shed: sp.Shed,
		FramesIn: sp.Stats.FramesIn, Windows: sp.Stats.Windows,
		Detections: sp.Stats.Detections, DroppedFrames: sp.Stats.DroppedFrames,
	}
	if s.watchdog != nil {
		out.Resilience.StalledJobs = s.watchdog.Stalled()
		out.Resilience.WatchdogCancelled = s.watchdog.Cancelled()
	}
	out.Runtime = RuntimeSnapshot()
	WriteMetrics(w, r, out)
}

func projectSummary(p *project.Project) v1.ProjectSummary {
	out := v1.ProjectSummary{
		ID: p.ID, Name: p.Name, Owner: p.OwnerID,
		Public: p.Public(), Samples: p.Dataset().Len(),
		Collaborators: p.Collaborators(),
	}
	if err := p.ImpulseError(); err != nil {
		out.ImpulseError = err.Error()
	}
	return out
}

func (s *Server) writeProjectList(w http.ResponseWriter, r *http.Request, all []*project.Project) {
	limit, offset, err := PageParams(r)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	window, page := Paginate(all, limit, offset)
	var out []v1.ProjectSummary
	for _, p := range window {
		out = append(out, projectSummary(p))
	}
	WriteJSON(w, http.StatusOK, v1.ProjectsResponse{Success: true, Projects: out, Page: page})
}

func (s *Server) handlePublicProjects(w http.ResponseWriter, r *http.Request) {
	s.writeProjectList(w, r, s.registry.ListPublic())
}

func (s *Server) handleListProjects(w http.ResponseWriter, r *http.Request, u *project.User) {
	s.writeProjectList(w, r, s.registry.ListAccessible(u.ID))
}

func (s *Server) handleCreateProject(w http.ResponseWriter, r *http.Request, u *project.User) {
	var req v1.CreateProjectRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	p, err := s.registry.CreateProject(req.Name, u.ID)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusCreated, v1.CreateProjectResponse{
		Success: true, ID: p.ID, Name: p.Name, HMACKey: p.HMACKey,
	})
}

func (s *Server) handleGetProject(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	WriteJSON(w, http.StatusOK, v1.ProjectResponse{Success: true, Project: projectSummary(p)})
}

func (s *Server) handleSetPublic(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.SetPublicRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	p.SetPublic(req.Public)
	WriteJSON(w, http.StatusOK, v1.SetPublicResponse{Success: true, Public: p.Public()})
}

func (s *Server) handleAddCollaborator(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.AddCollaboratorRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if _, err := s.registry.GetUser(req.UserID); err != nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
		return
	}
	p.AddCollaborator(req.UserID)
	WriteJSON(w, http.StatusOK, v1.OK{Success: true})
}

// handleUploadData ingests one sample. Query params: label (required),
// name, format ∈ {wav, csv, acquisition, image}. The acquisition format
// verifies the project's HMAC key (paper Sec. 4.1 ingestion service).
func (s *Server) handleUploadData(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	label := r.URL.Query().Get("label")
	if label == "" {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "label query parameter required")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "upload"
	}
	format := r.URL.Query().Get("format")
	// Every importer copies what it keeps out of body, so the buffer can
	// go back to the pool when the handler returns.
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	body, err := buf.readBody(w, r)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	ds := p.Dataset()
	var id string
	switch format {
	case "wav":
		id, err = ds.ImportWAV(name, label, bytes.NewReader(body))
	case "csv":
		id, err = ds.ImportCSV(name, label, bytes.NewReader(body))
	case "image":
		id, err = ds.ImportImage(name, label, bytes.NewReader(body))
	case "acquisition", "":
		id, err = ds.ImportAcquisition(name, label, body, p.HMACKey)
	default:
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "unknown format "+format)
		return
	}
	switch {
	case err == nil:
	case errors.Is(err, data.ErrDuplicate):
		// The dataset already holds this exact content — a stable code
		// so idempotent uploaders (spool replay) can treat it as an ack.
		WriteError(w, r, http.StatusConflict, v1.CodeConflict, err.Error())
		return
	case errors.Is(err, data.ErrPersist):
		// Valid input, but durable storage failed: a server fault.
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	default:
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusCreated, v1.UploadResponse{Success: true, SampleID: id})
}

func labelStats(stats []data.LabelStat) []v1.LabelStat {
	out := make([]v1.LabelStat, len(stats))
	for i, st := range stats {
		out[i] = v1.LabelStat{
			Label: st.Label, Training: st.Training,
			Testing: st.Testing, Seconds: st.Seconds,
		}
	}
	return out
}

func (s *Server) handleListData(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	limit, offset, err := PageParams(r)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	ds := p.Dataset()
	all := ds.List(data.Category(r.URL.Query().Get("category")))
	window, page := Paginate(all, limit, offset)
	var samples []v1.Sample
	// List serves headers only: no signal payload is loaded no matter
	// how large the dataset is.
	for _, sm := range window {
		samples = append(samples, v1.Sample{
			ID: sm.ID, Name: sm.Name, Label: sm.Label,
			Category: string(sm.Category), Frames: sm.Shape.Frames,
		})
	}
	WriteJSON(w, http.StatusOK, v1.ListDataResponse{
		Success: true,
		Samples: samples,
		Stats:   labelStats(ds.Stats()),
		Version: ds.Version(),
		Page:    page,
	})
}

func (s *Server) handleDeleteSample(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	if err := p.Dataset().Remove(r.PathValue("sample")); err != nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.OK{Success: true})
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.RebalanceRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if req.TestFraction <= 0 || req.TestFraction >= 1 {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "test_fraction must be in (0,1)")
		return
	}
	if err := p.Dataset().Rebalance(req.TestFraction); err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.RebalanceResponse{Success: true, Stats: labelStats(p.Dataset().Stats())})
}

func (s *Server) handleSetImpulse(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	cfg, err := core.ParseConfig(body)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	imp, err := core.FromConfig(cfg)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	p.SetImpulse(imp)
	shape, _ := imp.FeatureShape()
	WriteJSON(w, http.StatusOK, v1.SetImpulseResponse{
		Success: true, FeatureShape: shape, Dataflow: imp.Describe(),
		Blocks: featureBlocks(imp),
	})
}

// featureBlocks renders the impulse's per-block offset table.
func featureBlocks(imp *core.Impulse) []v1.FeatureBlock {
	layout, err := imp.Layout()
	if err != nil {
		return nil
	}
	out := make([]v1.FeatureBlock, len(layout.Segments))
	for i, seg := range layout.Segments {
		out[i] = v1.FeatureBlock{
			Name: seg.Name, Type: imp.DSP[i].Block.Name(),
			Shape: seg.Shape, Offset: seg.Offset, Size: seg.Len,
		}
	}
	return out
}

func (s *Server) handleGetImpulse(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	imp := p.Impulse()
	if imp == nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, "no impulse configured")
		return
	}
	cfg, err := json.Marshal(imp.Config())
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.GetImpulseResponse{
		Success: true, Impulse: cfg, Version: core.ConfigVersion,
		Trained: imp.Model != nil, Quantized: imp.QModel != nil,
		Dataflow: imp.Describe(), Blocks: featureBlocks(imp),
	})
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.TrainRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	base := p.Impulse()
	if base == nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "configure an impulse first")
		return
	}
	if p.Dataset().Len() == 0 {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "project has no data")
		return
	}
	// Training runs in the interactive class: a user is watching the
	// Studio's progress bar, so it schedules ahead of batch tuner runs.
	opts := jobs.SubmitOptions{Kind: "training", Tag: p.ID, Priority: jobs.PriorityInteractive}
	job, err := s.sched.SubmitJob(opts, func(ctx context.Context, j *jobs.Job) error {
		// Train on a fresh impulse so a failed or cancelled job never
		// corrupts the project's current model.
		j.SetProgress("prepare", 0)
		imp, err := core.FromConfig(base.Config())
		if err != nil {
			return err
		}
		imp.Classes = p.Dataset().Labels()
		res, err := trainImpulse(ctx, imp, p.Dataset(), req, j)
		if err != nil {
			return err
		}
		p.SetImpulse(imp)
		j.SetResult(res)
		j.SetProgress("done", 100)
		return nil
	})
	if err != nil {
		s.submitError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, v1.JobAccepted{Success: true, JobID: job.ID})
}

// submitError maps a scheduler admission failure: a tenant over its
// queue quota gets 429 (back off and retry), a full scheduler 503.
// Both carry Retry-After — every shed response in the API is retryable.
func (s *Server) submitError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, jobs.ErrQuotaExceeded) {
		w.Header().Set("Retry-After", "1")
		WriteError(w, r, http.StatusTooManyRequests, v1.CodeRateLimited, err.Error())
		return
	}
	w.Header().Set("Retry-After", "2")
	WriteError(w, r, http.StatusServiceUnavailable, v1.CodeUnavailable, err.Error())
}

func (s *Server) handleTuner(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.TunerRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	base := p.Impulse()
	if base == nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "configure an impulse first")
		return
	}
	if p.Dataset().Len() == 0 {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "project has no data")
		return
	}
	tgt := device.Target{}
	if req.Target != "" {
		var err error
		tgt, err = device.Get(req.Target)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
			return
		}
	}
	input := base.Input
	// Tuner sweeps are batch work: they yield to interactive training.
	opts := jobs.SubmitOptions{Kind: "tuner", Tag: p.ID, Priority: jobs.PriorityBatch}
	job, err := s.sched.SubmitJob(opts, func(ctx context.Context, j *jobs.Job) error {
		trials, err := tuner.Run(p.Dataset(), tuner.Config{
			Ctx:         ctx,
			Input:       input,
			Constraints: tuner.Constraints{Target: tgt},
			MaxTrials:   req.MaxTrials,
			Epochs:      req.Epochs,
			Strategy:    req.Strategy,
			Seed:        req.Seed,
			Progress: func(done, total int) {
				if total > 0 {
					j.SetProgress("trials", 100*float64(done)/float64(total))
				}
			},
		})
		if err != nil {
			return err
		}
		j.Logf("tuner finished with %d trials", len(trials))
		j.SetResult(tunerTrials(trials))
		return nil
	})
	if err != nil {
		s.submitError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, v1.JobAccepted{Success: true, JobID: job.ID})
}

func tunerTrials(trials []tuner.Trial) []v1.TunerTrial {
	out := make([]v1.TunerTrial, len(trials))
	for i, t := range trials {
		out[i] = v1.TunerTrial{
			DSPDesc: t.DSPDesc, ModelDesc: t.ModelDesc, Accuracy: t.Accuracy,
			DSPLatencyMS: t.DSPLatencyMS, NNLatencyMS: t.NNLatencyMS,
			TotalLatencyMS: t.TotalLatencyMS,
			DSPRAM:         t.DSPRAM, NNRAM: t.NNRAM, TotalRAM: t.TotalRAM,
			NNFlash: t.NNFlash, Fits: t.Fits,
		}
	}
	return out
}

// bodyBuf is what a handler of signal-sized bodies needs per request
// and gives back when it returns: the raw body (classify, upload, stream
// push) and the decoder whose float arrays a decoded classify request
// points into. Nothing that outlives the handler may keep a reference
// to either (core.ClassResult does not; the importers and a stream
// session get copies).
type bodyBuf struct {
	body bytes.Buffer
	dec  v1.ClassifyDecoder
}

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBody reads the request body, bounded like every data route's (an
// oversized one is a *http.MaxBytesError, 413 in badRequest), into the
// buffer's own storage, grown once up front when Content-Length says
// how far.
func (b *bodyBuf) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	b.body.Reset()
	if n := r.ContentLength; n > 0 && n <= maxDataBody {
		b.body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead free to see EOF
	}
	_, err := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxDataBody))
	return b.body.Bytes(), err
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	var req v1.ClassifyRequest
	body, err := buf.readBody(w, r)
	if err == nil {
		err = buf.dec.Classify(body, &req)
	}
	if err != nil {
		s.badRequest(w, r, fmt.Errorf("bad request body: %w", err))
		return
	}
	imp := p.Impulse()
	if imp == nil || imp.Model == nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "impulse is not trained")
		return
	}
	res, err := imp.ClassifyWindow(imp.SignalFor(req.Features), req.Quantized)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.ClassifyResponse{
		Success: true, Label: res.Label,
		Classification: res.Scores, Anomaly: res.AnomalyScore,
	})
}

func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	buf := bodyBufs.Get().(*bodyBuf)
	defer bodyBufs.Put(buf)
	var req v1.ClassifyBatchRequest
	body, err := buf.readBody(w, r)
	if err == nil {
		err = buf.dec.Batch(body, &req)
	}
	if err != nil {
		s.badRequest(w, r, fmt.Errorf("bad request body: %w", err))
		return
	}
	imp := p.Impulse()
	if imp == nil || imp.Model == nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "impulse is not trained")
		return
	}
	if len(req.Windows) == 0 {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "batch has no windows")
		return
	}
	want := imp.WindowLen()
	for i, win := range req.Windows {
		if len(win) != want {
			WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest,
				fmt.Sprintf("batch window %d has %d values, the impulse takes %d", i, len(win), want))
			return
		}
	}
	results, err := imp.ClassifyBatch(req.Windows, req.Quantized)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	out := v1.ClassifyBatchResponse{Success: true, Results: make([]v1.ClassifyWindowResult, len(results))}
	for i, res := range results {
		out.Results[i] = v1.ClassifyWindowResult{
			Label: res.Label, Classification: res.Scores, Anomaly: res.AnomalyScore,
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeployment(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	imp := p.Impulse()
	if imp == nil || imp.Model == nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "impulse is not trained")
		return
	}
	quantized := r.URL.Query().Get("quantized") == "true"
	kind := r.URL.Query().Get("type")
	switch kind {
	case "eim":
		blob, err := imp.MarshalArtifact()
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", "attachment; filename=model.eim")
		w.WriteHeader(http.StatusOK)
		w.Write(blob)
	case "cpp", "arduino", "wasm", "":
		var art deploy.Artifact
		var err error
		switch kind {
		case "arduino":
			art, err = deploy.ArduinoLibrary(imp, quantized)
		case "wasm":
			art, err = deploy.WASM(imp, quantized)
		default:
			art, err = deploy.CPPLibrary(imp, quantized)
		}
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
			return
		}
		files := map[string]string{}
		for name, content := range art.Files {
			files[name] = base64.StdEncoding.EncodeToString(content)
		}
		WriteJSON(w, http.StatusOK, v1.DeploymentResponse{
			Success: true, Kind: art.Kind, Files: files,
		})
	default:
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "unknown deployment type "+kind)
	}
}

// handleProfile returns latency and memory estimates for a target —
// the "profiling without the GUI" feature of the Python SDK (Sec. 4.9).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	imp := p.Impulse()
	if imp == nil || imp.Model == nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "impulse is not trained")
		return
	}
	targetID := r.URL.Query().Get("target")
	if targetID == "" {
		targetID = "nano-33-ble-sense"
	}
	tgt, err := device.Get(targetID)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	specs, err := imp.Model.Spec()
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	est := renode.EstimateFloat(tgt, imp.DSPCost(), specs, renode.TFLM)
	mem, err := profiler.EstimateFloat(imp.Model, renode.TFLM)
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	out := v1.ProfileResponse{
		Success: true, Target: tgt.ID,
		Float32: &v1.ProfileEstimate{
			DSPMS: est.DSPMillis, InferenceMS: est.InferenceMillis,
			TotalMS: est.TotalMillis,
			RAMKB:   float64(mem.RAMBytes) / 1024, FlashKB: float64(mem.FlashBytes) / 1024,
			Fits: profiler.Fits(mem, imp.DSPRAM(), tgt),
		},
	}
	if imp.QModel != nil {
		qEst := renode.EstimateInt8(tgt, imp.DSPCost(), imp.QModel, renode.EON)
		qMem, err := profiler.EstimateInt8(imp.QModel, renode.EON)
		if err != nil {
			WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
			return
		}
		out.Int8 = &v1.ProfileEstimate{
			DSPMS: qEst.DSPMillis, InferenceMS: qEst.InferenceMillis,
			TotalMS: qEst.TotalMillis,
			RAMKB:   float64(qMem.RAMBytes) / 1024, FlashKB: float64(qMem.FlashBytes) / 1024,
			Fits: profiler.Fits(qMem, imp.DSPRAM(), tgt),
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

func projectVersion(v project.Version) v1.ProjectVersion {
	return v1.ProjectVersion{
		ID: v.ID, Note: v.Note, DatasetVersion: v.DatasetVersion,
		ImpulseConfig: v.ImpulseConfig,
		CreatedAt:     v.CreatedAt.UTC().Format(time.RFC3339),
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	var req v1.SnapshotRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	v := p.Snapshot(req.Note)
	WriteJSON(w, http.StatusCreated, v1.SnapshotResponse{Success: true, Version: projectVersion(v)})
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request, u *project.User, p *project.Project) {
	limit, offset, err := PageParams(r)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, err.Error())
		return
	}
	window, page := Paginate(p.Versions(), limit, offset)
	var out []v1.ProjectVersion
	for _, v := range window {
		out = append(out, projectVersion(v))
	}
	WriteJSON(w, http.StatusOK, v1.VersionsResponse{Success: true, Versions: out, Page: page})
}

// authorizeJob resolves a job and enforces the owning project's access
// control via the tag attached at submission (set before the job is
// ever resolvable, so there is no window where it appears untagged).
// Jobs from an inaccessible project answer 404 (not 403) so probing
// sequential job IDs does not confirm their existence. Jobs with no
// project tag (submitted outside the API) stay visible to any
// authenticated user.
func (s *Server) authorizeJob(w http.ResponseWriter, r *http.Request, u *project.User) (*jobs.Job, bool) {
	j, err := s.sched.Get(r.PathValue("job"))
	if err != nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, err.Error())
		return nil, false
	}
	if pid, ok := j.Tag.(int); ok {
		p, err := s.registry.GetProject(pid)
		if err != nil || !p.CanAccess(u.ID) {
			WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, "jobs: no job "+j.ID)
			return nil, false
		}
	}
	return j, true
}

func jobView(j *jobs.Job) v1.Job {
	stage, pct := j.Progress()
	return v1.Job{
		ID: j.ID, Kind: j.Kind, Status: string(j.Status()),
		Priority: j.Priority.String(),
		Error:    j.Err(), Logs: j.Logs(),
		Stage: stage, Progress: pct, Attempt: j.Attempt(),
		DurationMS: float64(j.Duration().Microseconds()) / 1000,
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request, u *project.User) {
	j, ok := s.authorizeJob(w, r, u)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, v1.JobResponse{Success: true, Job: jobView(j)})
}

// Long-poll bounds for GET /jobs/{job}/wait.
const (
	defaultWaitTimeout = 30 * time.Second
	maxWaitTimeout     = 120 * time.Second
)

// handleJobWait long-polls until the job reaches a terminal state or
// timeout_ms elapses, so clients stop busy-looping on job status.
func (s *Server) handleJobWait(w http.ResponseWriter, r *http.Request, u *project.User) {
	j, ok := s.authorizeJob(w, r, u)
	if !ok {
		return
	}
	timeout, ok := waitTimeout(r)
	if !ok {
		WriteError(w, r, http.StatusBadRequest, v1.CodeBadRequest, "timeout_ms must be a positive integer")
		return
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-j.Done():
		WriteJSON(w, http.StatusOK, v1.JobWaitResponse{Success: true, Done: true, Job: jobView(j)})
	case <-timer.C:
		WriteJSON(w, http.StatusOK, v1.JobWaitResponse{Success: true, Done: false, Job: jobView(j)})
	case <-r.Context().Done():
		// Client went away mid-poll; mark it so metrics don't count
		// this as a handler failure.
		w.WriteHeader(statusClientClosedRequest)
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, u *project.User) {
	j, ok := s.authorizeJob(w, r, u)
	if !ok {
		return
	}
	res := j.Result()
	if res == nil {
		WriteError(w, r, http.StatusNotFound, v1.CodeNotFound, "no result for job "+j.ID+" (still running?)")
		return
	}
	raw, err := json.Marshal(res)
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, v1.CodeInternal, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, v1.JobResultResponse{Success: true, Kind: j.Kind, Result: raw})
}
