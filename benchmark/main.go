// Command benchmark is the repo's yardstick: four workloads against an
// in-process daemon (or, for edge_infer, the inference engines alone),
// four end-to-end metrics per workload, and a traced run that times
// every serving layer from outside. See README.md beside this file.
//
//	bash benchmark/bench.sh --workload serve_classify --seed 1 --seconds 25 --trace 0
//	bash benchmark/bench.sh --workload serve_classify --seed 1 --seconds 25 --trace 1
//	bash benchmark/bench.sh --compare A.json B.json
//
// A run prints every metric by name with its unit and, as its last
// line, one JSON object {correct, attempted, failed, metrics}. It exits
// non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of serve_classify, serve_batch_i8, edge_infer, ingest_upload")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "length of the measured window")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = traced run with per-layer metrics")
	outDir := fs.String("out", "benchmark/out", "directory for traces and durable state, relative to the checkout root")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition, for -compare's bounds")
	fingerprint := fs.Bool("fingerprint", false, "print the machine fingerprint as JSON and exit")
	commit := fs.String("commit", "unknown", "commit to name in the fingerprint (the program cannot see git)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *fingerprint:
		blob, err := json.Marshal(machineFingerprint(*commit))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(blob))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files, got %d", fs.NArg()))
		}
		regressed, err := compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = runMeasured(*workload, *seed, d, *outDir, stdout)
	} else {
		res, err = runTraced(*workload, *seed, d, *outDir, stdout)
	}
	if err != nil {
		return fail(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}
