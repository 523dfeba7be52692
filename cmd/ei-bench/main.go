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

	"edgepulse/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "run a single experiment (table1..table5, fig1..fig3)")
	quick := flag.Bool("quick", false, "reduced budgets for quick runs")
	seed := flag.Int64("seed", 42, "random seed")
	out := flag.String("out", "", "directory to write per-experiment outputs")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	var save func(id, rendered string) error
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		save = func(id, rendered string) error {
			return os.WriteFile(filepath.Join(*out, id+".txt"), []byte(rendered), 0o644)
		}
	}
	if err := bench.Report(os.Stdout, *run, *quick, *seed, save); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ei-bench:", err)
	os.Exit(1)
}
