package bench

import (
	"fmt"
	"runtime"
	"strings"

	"edgepulse/internal/core"
	"edgepulse/internal/device"
	"edgepulse/internal/profiler"
	"edgepulse/internal/renode"
	"edgepulse/internal/report"
	"edgepulse/internal/synth"
	"edgepulse/internal/tuner"
)

// Table1 renders the evaluation platform table.
func Table1() string {
	t := report.NewTable("Table 1. Embedded platforms used for evaluation.",
		"Platform", "Processor", "Clock", "Flash", "RAM")
	for _, b := range device.EvaluationBoards() {
		t.AddRow(b.Name, b.CPU,
			fmt.Sprintf("%d MHz", b.ClockHz/1_000_000),
			fmt.Sprintf("%d MB", b.FlashBytes>>20),
			ramStr(b.RAMBytes))
	}
	return t.Render()
}

func ramStr(b int64) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%d MB", b>>20)
	}
	return fmt.Sprintf("%d kB", b>>10)
}

// Table2Cell is one (workload, board, precision) latency estimate.
type Table2Cell struct {
	Workload                            string
	Board                               string
	Precision                           string
	Fits                                bool
	DSPMillis, InferMillis, TotalMillis float64
}

// Table2 simulates Table 2: preprocessing and inference times (ms) for
// the three workloads, float32 and int8, across the three boards. Models
// that do not fit a board's memory show '-', as in the paper.
func Table2() (string, []Table2Cell, error) {
	workloads, err := AllWorkloads()
	if err != nil {
		return "", nil, err
	}
	boards := device.EvaluationBoards()
	headers := []string{"", ""}
	for _, b := range boards {
		headers = append(headers, b.Name+" Float", b.Name+" Int8")
	}
	t := report.NewTable("Table 2. Preprocessing and inference times (ms). '-' = does not fit.",
		headers...)
	var cells []Table2Cell
	for wi, w := range workloads {
		if wi > 0 {
			t.AddSeparator()
		}
		type rowvals struct {
			dsp, inf, tot []string
		}
		var rv rowvals
		// Fit checks per precision (TFLM engine, as the paper used).
		memF, err := profiler.EstimateFloat(w.Model, renode.TFLM)
		if err != nil {
			return "", nil, err
		}
		memI, err := profiler.EstimateInt8(w.QModel, renode.TFLM)
		if err != nil {
			return "", nil, err
		}
		for _, b := range boards {
			fitF := profiler.Fits(memF, w.DSPRAM, b)
			fitI := profiler.Fits(memI, w.DSPRAM, b)
			ef := renode.EstimateFloat(b, w.DSPCost, w.Specs, renode.TFLM)
			ei := renode.EstimateInt8(b, w.DSPCost, w.QModel, renode.TFLM)
			cells = append(cells,
				Table2Cell{w.ID, b.ID, "float32", fitF, ef.DSPMillis, ef.InferenceMillis, ef.TotalMillis},
				Table2Cell{w.ID, b.ID, "int8", fitI, ei.DSPMillis, ei.InferenceMillis, ei.TotalMillis})
			rv.dsp = append(rv.dsp, report.Ms(ef.DSPMillis, fitF), report.Ms(ei.DSPMillis, fitI))
			rv.inf = append(rv.inf, report.Ms(ef.InferenceMillis, fitF), report.Ms(ei.InferenceMillis, fitI))
			rv.tot = append(rv.tot, report.Ms(ef.TotalMillis, fitF), report.Ms(ei.TotalMillis, fitI))
		}
		t.AddRow(append([]string{w.Name, "Preprocessing"}, rv.dsp...)...)
		t.AddRow(append([]string{"", "Inference"}, rv.inf...)...)
		t.AddRow(append([]string{"", "Total"}, rv.tot...)...)
	}
	return t.Render(), cells, nil
}

// Table3 runs the EON Tuner over synthetic keyword spotting data and
// renders the explored configurations like the paper's Table 3. quick
// restricts the space and budget for fast runs.
func Table3(quick bool, seed int64) (string, []tuner.Trial, error) {
	perClass := 12
	epochs := 4
	maxTrials := 14
	space := tuner.DefaultKWSSpace()
	if quick {
		perClass = 8
		epochs = 2
		maxTrials = 4
		// Drop the expensive MobileNetV2 candidate in quick mode.
		space.Models = space.Models[1:]
		space.DSP = space.DSP[:3]
	}
	ds, err := synth.KWSDataset(4, perClass, 16000, 1.0, 0.03, seed)
	if err != nil {
		return "", nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	trials, err := tuner.Run(ds, tuner.Config{
		Space:       space,
		Input:       core.InputBlock{Kind: core.TimeSeries, WindowMS: 1000, FrequencyHz: 16000, Axes: 1},
		Constraints: tuner.Constraints{Target: device.MustGet("nano-33-ble-sense")},
		MaxTrials:   maxTrials,
		Epochs:      epochs,
		Seed:        seed,
		Workers:     workers,
	})
	if err != nil {
		return "", nil, err
	}
	t := report.NewTable(
		"Table 3. Preprocessing blocks and models explored with EON Tuner (KWS, Nano 33 BLE Sense, float32/TFLM).",
		"Preprocessing", "Model", "Acc.",
		"DSP ms", "Infer ms", "Total ms",
		"DSP RAM kB", "NN RAM kB", "Total RAM kB", "Flash kB", "Fits")
	for _, tr := range trials {
		fits := "yes"
		if !tr.Fits {
			fits = "no"
		}
		t.AddRow(tr.DSPDesc, tr.ModelDesc, report.Pct(tr.Accuracy),
			fmt.Sprintf("%.0f", tr.DSPLatencyMS),
			fmt.Sprintf("%.0f", tr.NNLatencyMS),
			fmt.Sprintf("%.0f", tr.TotalLatencyMS),
			report.KB(tr.DSPRAM), report.KB(tr.NNRAM), report.KB(tr.TotalRAM),
			report.KB(tr.NNFlash), fits)
	}
	return t.Render(), trials, nil
}

// Table4Cell is one (workload, precision, engine) memory estimate.
type Table4Cell struct {
	Workload  string
	Precision string
	Engine    string
	RAMKB     float64
	FlashKB   float64
}

// Table4 reproduces the memory estimation table: RAM and flash for every
// workload × {float32, int8} × {TFLM, EON}, plus preprocessing RAM.
func Table4() (string, []Table4Cell, error) {
	workloads, err := AllWorkloads()
	if err != nil {
		return "", nil, err
	}
	headers := []string{""}
	for _, w := range workloads {
		headers = append(headers, w.Name+" RAM kB", w.Name+" Flash kB")
	}
	t := report.NewTable("Table 4. Memory estimation (kB).", headers...)
	var cells []Table4Cell
	dspRow := []string{"Preprocessing"}
	for _, w := range workloads {
		dspRow = append(dspRow, report.KB(w.DSPRAM), "-")
	}
	t.AddRow(dspRow...)
	type variant struct {
		label     string
		precision renode.Precision
		engine    renode.Engine
	}
	variants := []variant{
		{"FP (TFLM)", renode.Float32, renode.TFLM},
		{"FP (EON)", renode.Float32, renode.EON},
		{"Int8 (TFLM)", renode.Int8, renode.TFLM},
		{"Int8 (EON)", renode.Int8, renode.EON},
	}
	for _, v := range variants {
		row := []string{v.label}
		for _, w := range workloads {
			var mem profiler.Memory
			if v.precision == renode.Float32 {
				mem, err = profiler.EstimateFloat(w.Model, v.engine)
			} else {
				mem, err = profiler.EstimateInt8(w.QModel, v.engine)
			}
			if err != nil {
				return "", nil, err
			}
			row = append(row, report.KB(mem.RAMBytes), report.KB(mem.FlashBytes))
			cells = append(cells, Table4Cell{
				Workload: w.ID, Precision: v.precision.String(), Engine: v.engine.String(),
				RAMKB: float64(mem.RAMBytes) / 1024, FlashKB: float64(mem.FlashBytes) / 1024,
			})
		}
		t.AddRow(row...)
	}
	return t.Render(), cells, nil
}

// Table5 renders the MLOps platform feature comparison.
func Table5() string {
	t := report.NewTable(
		"Table 5. Comparison of supported features of MLOps platforms (Y full, ~ partial, N none).",
		"Platform", "Data Coll. & Analysis", "DSP & Model Design",
		"Embedded Deployment", "AutoML & Active Learning", "IoT Mgmt & Monitoring")
	for _, p := range report.Table5Data() {
		t.AddRow(p.Name, p.DataColl, p.DSPModel, p.Embedded, p.AutoML, p.Monitoring)
	}
	return t.Render()
}

// Fig1 renders the workflow-to-feature mapping of the paper's Figure 1.
func Fig1() string {
	t := report.NewTable("Figure 1. ML workflow challenges and the platform features that address them.",
		"Stage", "Challenge", "Platform feature", "Package")
	rows := [][4]string{
		{"Data collection", "no curated sensor datasets; costly labeling", "signed ingestion (CSV/JSON/CBOR/WAV/images), dataset mgmt, active learning", "ingest, data, active"},
		{"Preprocessing", "DSP/ML co-design needs domain experts", "DSP block library with cost/RAM estimates, autotuning", "dsp, tuner"},
		{"Model design", "framework/version fragmentation", "model zoo + trainer with LR finder and checkpointing", "models, trainer"},
		{"Optimization", "resource constraints on-device", "int8 quantization, operator fusion, EON compiler", "quant, eon"},
		{"Deployment", "heterogeneous targets, unportable code", "C++/Arduino/WASM/EIM artifacts, device targets", "deploy, eim, device"},
		{"Evaluation", "no on-device visibility pre-deploy", "cycle-model latency + RAM/flash estimation", "renode, profiler"},
		{"MLOps", "no end-to-end automation", "REST API, jobs with autoscaling, versioned projects", "api, jobs, project"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	return t.Render()
}

// Fig2 renders the Studio dataflow view for a keyword-spotting impulse.
func Fig2() string {
	var b strings.Builder
	b.WriteString("Figure 2. Impulse dataflow (Studio view).\n")
	b.WriteString(report.Diagram("Time series data (1000 ms @ 16 kHz)", "MFCC", "Classification (12 classes)"))
	return b.String()
}

// Fig3 renders tuner trials as the EON Tuner result view: stacked bars of
// latency (DSP vs NN), RAM and flash per configuration.
func Fig3(trials []tuner.Trial) string {
	var b strings.Builder
	b.WriteString("Figure 3. EON Tuner results (bars scaled per column; '='=DSP, '#'=NN).\n\n")
	var maxLat, maxRAM, maxFlash float64
	for _, tr := range trials {
		if tr.TotalLatencyMS > maxLat {
			maxLat = tr.TotalLatencyMS
		}
		if v := float64(tr.TotalRAM); v > maxRAM {
			maxRAM = v
		}
		if v := float64(tr.NNFlash); v > maxFlash {
			maxFlash = v
		}
	}
	for _, tr := range trials {
		fmt.Fprintf(&b, "%-26s x %-22s acc %s\n", tr.DSPDesc, tr.ModelDesc, report.Pct(tr.Accuracy))
		fmt.Fprintf(&b, "  latency %s\n", report.StackedBar([]report.Segment{
			{Label: "dsp", Value: tr.DSPLatencyMS},
			{Label: "nn", Value: tr.NNLatencyMS},
		}, maxLat, 40, "ms"))
		fmt.Fprintf(&b, "  ram     %s\n", report.StackedBar([]report.Segment{
			{Label: "dsp", Value: float64(tr.DSPRAM) / 1024},
			{Label: "nn", Value: float64(tr.NNRAM) / 1024},
		}, maxRAM/1024, 40, "kB"))
		fmt.Fprintf(&b, "  flash   %s\n\n", report.StackedBar([]report.Segment{
			{Label: "nn", Value: float64(tr.NNFlash) / 1024},
		}, maxFlash/1024, 40, "kB"))
	}
	return b.String()
}
