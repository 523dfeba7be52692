// Command genv2 writes, under the directory it is given, v2tree (a
// project tree in the three-file layout before impulse.eim), a
// three-chunk three_chunk.eim, and scores.json, the scores that build's
// own loader gave for it. They are this directory's v2tree and
// v2tree_scores.json and internal/core/testdata's three_chunk.eim and
// three_chunk_scores.json. It only builds against a checkout from
// before impulse.eim (it calls deploy.BuildEIM): copy it to cmd/genv2
// there and run `go run ./cmd/genv2 <outdir>`. The go tool skips
// testdata, so it is kept here as the record of how the fixtures were
// made.
package main

import (
	"encoding/json"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"edgepulse/internal/core"
	"edgepulse/internal/deploy"
	"edgepulse/internal/dsp"
	"edgepulse/internal/models"
	"edgepulse/internal/nn"
	"edgepulse/internal/project"
	"edgepulse/internal/synth"
	"edgepulse/internal/trainer"
)

func design(filters int) *core.Impulse {
	imp := core.New("kws")
	imp.Input = core.InputBlock{Kind: core.TimeSeries, WindowMS: 500, FrequencyHz: 8000, Axes: 1}
	b, err := dsp.New("mfe", map[string]float64{"num_filters": float64(filters), "fft_length": 128})
	if err != nil {
		log.Fatal(err)
	}
	imp.UseDSP(b)
	imp.Classes = []string{"yes", "noise"}
	return imp
}

func trained(filters int, quantize bool) *core.Impulse {
	ds, err := synth.KWSDataset(2, 10, 8000, 0.5, 0.03, 7)
	if err != nil {
		log.Fatal(err)
	}
	imp := design(filters)
	imp.Classes = ds.Labels()
	shape, _ := imp.FeatureShape()
	m, err := models.Conv1DStack(shape[0], shape[1], 2, 4, 8, len(imp.Classes))
	if err != nil {
		log.Fatal(err)
	}
	nn.InitWeights(m, 3)
	if err := imp.AttachClassifier(m); err != nil {
		log.Fatal(err)
	}
	if _, err := imp.Train(ds, trainer.Config{Epochs: 3, LearningRate: 0.005, Seed: 5}); err != nil {
		log.Fatal(err)
	}
	if quantize {
		if err := imp.Quantize(ds); err != nil {
			log.Fatal(err)
		}
	}
	return imp
}

type golden struct {
	Classes []string   `json:"classes"`
	Labels  []string   `json:"labels"`
	Seeds   []int64    `json:"seeds"`
	Float   [][]uint32 `json:"float"`
	Int8    [][]uint32 `json:"int8"`
}

func main() {
	out := os.Args[1]
	tree := filepath.Join(out, "v2tree")
	r, err := project.Open(tree)
	if err != nil {
		log.Fatal(err)
	}
	u, _ := r.CreateUser("ada")
	p1, err := r.CreateProject("trained", u.ID)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := r.CreateProject("redesigned", u.ID)
	if err != nil {
		log.Fatal(err)
	}
	kws := trained(16, true)
	p1.SetImpulse(kws)
	p2.SetImpulse(trained(16, false))
	p2.SetImpulse(design(24))
	if err := r.Save(tree); err != nil {
		log.Fatal(err)
	}
	r.Close()

	blob, err := deploy.BuildEIM(kws)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "three_chunk.eim"), blob, 0o644); err != nil {
		log.Fatal(err)
	}
	back, err := deploy.ParseEIM(blob)
	if err != nil {
		log.Fatal(err)
	}
	g := golden{Classes: back.Classes}
	for _, label := range back.Classes {
		for seed := int64(1); seed <= 3; seed++ {
			sig, err := synth.Keyword(label, 8000, 0.5, 0.03, rand.New(rand.NewSource(seed)))
			if err != nil {
				log.Fatal(err)
			}
			g.Labels = append(g.Labels, label)
			g.Seeds = append(g.Seeds, seed)
			for _, q := range []bool{false, true} {
				var res core.ClassResult
				if q {
					res, err = back.ClassifyQuantized(sig)
				} else {
					res, err = back.Classify(sig)
				}
				if err != nil {
					log.Fatal(err)
				}
				var bits []uint32
				for _, c := range back.Classes {
					bits = append(bits, math.Float32bits(res.Scores[c]))
				}
				if q {
					g.Int8 = append(g.Int8, bits)
				} else {
					g.Float = append(g.Float, bits)
				}
			}
		}
	}
	gb, _ := json.MarshalIndent(g, "", " ")
	if err := os.WriteFile(filepath.Join(out, "scores.json"), append(gb, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	// That build's own loader refuses the redesigned tree.
	if _, err := project.Open(tree); err == nil {
		log.Fatal("the redesigned tree opened")
	} else {
		log.Printf("Open: %v", err)
	}
}
