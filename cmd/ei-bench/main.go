// Command ei-bench regenerates every table and figure of the paper's
// evaluation section (Sec. 5) from this repository's implementation.
//
// Usage:
//
//	ei-bench -list             enumerate experiments
//	ei-bench -run table2       regenerate one experiment
//	ei-bench                   regenerate everything
//	ei-bench -quick            smaller budgets (fast CI runs)
//	ei-bench -out results      also write results/<id>.txt files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"edgepulse/internal/bench"
	"edgepulse/internal/tuner"
)

type experiment struct {
	id    string
	title string
	run   func(quick bool, seed int64) (string, error)
}

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "run a single experiment (table1..table5, fig1..fig3)")
	quick := flag.Bool("quick", false, "reduced budgets for quick runs")
	seed := flag.Int64("seed", 42, "random seed")
	out := flag.String("out", "", "directory to write per-experiment outputs")
	flag.Parse()

	// Table 3 trials feed Fig. 3; cache them across experiments.
	var cachedTrials []tuner.Trial
	table3 := func(q bool, s int64) (string, []tuner.Trial, error) {
		rendered, trials, err := bench.Table3(bench.Table3Options{Quick: q, Seed: s})
		if err == nil {
			cachedTrials = trials
		}
		return rendered, trials, err
	}

	experiments := []experiment{
		{"table1", "Evaluation platforms", func(q bool, s int64) (string, error) {
			return bench.Table1(), nil
		}},
		{"table2", "Cross-hardware latency (float32 vs int8, 3 boards)", func(q bool, s int64) (string, error) {
			rendered, _, err := bench.Table2()
			return rendered, err
		}},
		{"table3", "EON Tuner exploration (KWS)", func(q bool, s int64) (string, error) {
			rendered, _, err := table3(q, s)
			return rendered, err
		}},
		{"table4", "Memory estimation (TFLM vs EON, float vs int8)", func(q bool, s int64) (string, error) {
			rendered, _, err := bench.Table4()
			if err != nil {
				return "", err
			}
			_, accTable, err := bench.AccuracyProxies(s)
			if err != nil {
				return "", err
			}
			return rendered + "\n" + accTable, nil
		}},
		{"table5", "MLOps platform feature comparison", func(q bool, s int64) (string, error) {
			return bench.Table5(), nil
		}},
		{"fig1", "Workflow challenges and features", func(q bool, s int64) (string, error) {
			return bench.Fig1(), nil
		}},
		{"fig2", "Impulse dataflow view", func(q bool, s int64) (string, error) {
			return bench.Fig2(), nil
		}},
		{"fig3", "EON Tuner result view", func(q bool, s int64) (string, error) {
			if cachedTrials == nil {
				_, _, err := table3(q, s)
				if err != nil {
					return "", err
				}
			}
			return bench.Fig3(cachedTrials), nil
		}},
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.id, e.title)
		}
		return
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	ran := 0
	for _, e := range experiments {
		if *run != "" && !strings.EqualFold(*run, e.id) {
			continue
		}
		ran++
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		rendered, err := e.run(*quick, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
		fmt.Println(rendered)
		if *out != "" {
			path := filepath.Join(*out, e.id+".txt")
			if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q (use -list)", *run))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ei-bench:", err)
	os.Exit(1)
}
