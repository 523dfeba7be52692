// Command ei-run executes a deployed EIM artifact, either classifying an
// input file directly or serving the model behind a Unix socket with the
// EIM runner protocol — the Linux deployment path of paper Sec. 4.6.
//
// Usage:
//
//	ei-run -model model.eim classify input.wav
//	ei-run -model model.eim -quantized classify input.csv
//	ei-run -model model.eim serve /tmp/model.sock
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"

	"edgepulse/internal/core"
	"edgepulse/internal/dsp"
	"edgepulse/internal/eim"
	"edgepulse/internal/wav"
)

func main() {
	modelPath := flag.String("model", "", "path to .eim artifact")
	quantized := flag.Bool("quantized", false, "use the int8 model (an error if the artefact has none)")
	flag.Parse()
	args := flag.Args()
	if *modelPath == "" || len(args) < 1 {
		usage()
	}
	blob, err := os.ReadFile(*modelPath)
	if err != nil {
		fatal(err)
	}
	imp, err := core.ParseArtifact(blob)
	if err != nil {
		fatal(err)
	}
	switch args[0] {
	case "classify":
		if len(args) != 2 {
			usage()
		}
		if err := classify(imp, args[1], *quantized); err != nil {
			fatal(err)
		}
	case "serve":
		if len(args) != 2 {
			usage()
		}
		srv, err := eim.NewServer(imp)
		if err != nil {
			fatal(err)
		}
		os.Remove(args[1])
		ln, err := net.Listen("unix", args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving %s on %s\n", imp.Name, args[1])
		if err := srv.Serve(ln); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

// classify loads the input file, runs the impulse, and prints scores.
func classify(imp *core.Impulse, path string, quantized bool) error {
	sig, err := loadSignal(path)
	if err != nil {
		return err
	}
	res, err := imp.ClassifyWindow(sig, quantized)
	if err != nil {
		return err
	}
	classes := make([]string, 0, len(res.Scores))
	for c := range res.Scores {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		marker := "  "
		if c == res.Label {
			marker = "->"
		}
		fmt.Printf("%s %-16s %.4f\n", marker, c, res.Scores[c])
	}
	if imp.Anomaly != nil {
		fmt.Printf("   anomaly score    %.3f\n", res.AnomalyScore)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ei-run -model model.eim [-quantized] <classify input.(wav|csv) | serve socket>")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ei-run:", err)
	os.Exit(1)
}

// loadSignal reads a WAV or CSV file into a signal.
func loadSignal(path string) (dsp.Signal, error) {
	f, err := os.Open(path)
	if err != nil {
		return dsp.Signal{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".wav") {
		a, err := wav.Decode(f)
		if err != nil {
			return dsp.Signal{}, err
		}
		return dsp.Signal{Data: a.Samples, Rate: a.Rate, Axes: a.Channels}, nil
	}
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return dsp.Signal{}, err
	}
	if len(rows) == 0 {
		return dsp.Signal{}, fmt.Errorf("empty csv")
	}
	start := 0
	if _, err := strconv.ParseFloat(rows[0][0], 64); err != nil {
		start = 1
	}
	axes := len(rows[start]) - 1
	var data []float32
	for _, row := range rows[start:] {
		for a := 1; a <= axes; a++ {
			v, err := strconv.ParseFloat(row[a], 64)
			if err != nil {
				return dsp.Signal{}, err
			}
			data = append(data, float32(v))
		}
	}
	return dsp.Signal{Data: data, Axes: axes, Rate: 0}, nil
}
