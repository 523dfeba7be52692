package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// definition is BENCHMARK.json. -compare takes from it which metrics
// are end-to-end, which way is better and how far each may worsen.
type definition struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// fingerprint says what machine and toolchain a result file came from;
// numbers from different fingerprints do not compare.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFingerprint(commit string) fingerprint {
	fp := fingerprint{Commit: commit, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// resultFile is what run.sh writes: every run of one set, each with the
// last line it printed.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    int    `json:"trace"`
		Result   result `json:"result"`
	} `json:"runs"`
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects one end-to-end metric's value from every untraced run
// of a workload.
func (rf resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Result.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges B's median against A's for one (metric, workload):
// "regressed" when B is worse by more than the bound, "unresolved" when
// A's own runs spread (interquartile range over median) wider than the
// bound so the comparison cannot tell, "ok" otherwise.
func verdict(a, b []float64, better string, bound float64) (string, float64, float64) {
	ma, mb := medianFloat(a), medianFloat(b)
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	var spread float64
	if q1, q3, err := quartiles(a); err == nil {
		spread = (q3 - q1) / ma
	}
	switch {
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	}
	return "ok", worse, spread
}

// compareFiles prints one row per (end-to-end metric, workload) and
// reports whether any row regressed.
func compareFiles(specPath, pathA, pathB string, out io.Writer) (regressed bool, err error) {
	var spec definition
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if a.Fingerprint.CPUModel != b.Fingerprint.CPUModel || a.Fingerprint.NumCPU != b.Fingerprint.NumCPU ||
		a.Fingerprint.GOMAXPROCS != b.Fingerprint.GOMAXPROCS || a.Fingerprint.GoVersion != b.Fingerprint.GoVersion {
		fmt.Fprintf(out, "WARNING: fingerprints differ, the rows below compare unlike machines:\n  A %+v\n  B %+v\n", a.Fingerprint, b.Fingerprint)
	}
	fmt.Fprintf(out, "%-16s %-18s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "A spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-16s %-18s %12s %12s %9s %9s %7s  missing (A has %d runs, B has %d)\n", w.Name, m.Name, "-", "-", "-", "-", "-", len(va), len(vb))
				continue
			}
			v, worse, spread := verdict(va, vb, m.Better, m.Bound)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(out, "%-16s %-18s %12.4f %12.4f %+8.1f%% %8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, medianFloat(va), medianFloat(vb), 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	for _, rf := range []resultFile{a, b} {
		for _, r := range rf.Runs {
			if !r.Result.Correct || r.Result.Failed > 0 {
				regressed = true
				fmt.Fprintf(out, "FAILED RUN: %s seed %d trace %d: correct=%v failed=%d of %d\n",
					r.Workload, r.Seed, r.Trace, r.Result.Correct, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
	return regressed, nil
}
