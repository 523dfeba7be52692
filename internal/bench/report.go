package bench

import (
	"fmt"
	"io"
	"strings"

	"edgepulse/internal/tuner"
)

// Experiment is one reproduced table or figure of the paper's evaluation.
type Experiment struct {
	ID, Title string
	run       func(*reportRun) (string, error)
}

// Experiments lists every reproduced table and figure in report order.
var Experiments = []Experiment{
	{"table1", "Evaluation platforms", fixed(Table1)},
	{"table2", "Cross-hardware latency (float32 vs int8, 3 boards)", func(*reportRun) (string, error) {
		out, _, err := Table2()
		return out, err
	}},
	{"table3", "EON Tuner exploration (KWS)", (*reportRun).table3},
	{"table4", "Memory estimation (TFLM vs EON, float vs int8)", (*reportRun).table4},
	{"table5", "MLOps platform feature comparison", fixed(Table5)},
	{"fig1", "Workflow challenges and features", fixed(Fig1)},
	{"fig2", "Impulse dataflow view", fixed(Fig2)},
	{"fig3", "EON Tuner result view", (*reportRun).fig3},
}

// fixed runs an experiment that depends on neither budget nor seed.
func fixed(render func() string) func(*reportRun) (string, error) {
	return func(*reportRun) (string, error) { return render(), nil }
}

// reportRun is one report's budget and seed, and the Table 3 trials
// Fig. 3 draws, so a report runs the tuner once.
type reportRun struct {
	quick  bool
	seed   int64
	trials []tuner.Trial
}

// Report writes the experiment whose ID is only (in any case), or every
// experiment when only is empty, to w: each as an "== id: title ==" line
// and its rendering, which save, when not nil, also receives. quick
// selects Table 3's reduced tuner budget.
func Report(w io.Writer, only string, quick bool, seed int64, save func(id, rendered string) error) error {
	return (&reportRun{quick: quick, seed: seed}).write(w, only, save)
}

func (r *reportRun) write(w io.Writer, only string, save func(id, rendered string) error) error {
	ran := 0
	for _, e := range Experiments {
		if only != "" && !strings.EqualFold(only, e.ID) {
			continue
		}
		ran++
		fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		out, err := e.run(r)
		if err == nil {
			_, err = fmt.Fprintln(w, out)
		}
		if err == nil && save != nil {
			err = save(e.ID, out)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", only)
	}
	return nil
}

func (r *reportRun) table3() (string, error) {
	out, trials, err := Table3(r.quick, r.seed)
	r.trials = trials
	return out, err
}

// table4 is the memory table followed by Table 4's accuracy rows.
func (r *reportRun) table4() (string, error) {
	memory, _, err := Table4()
	if err != nil {
		return "", err
	}
	_, accuracy, err := AccuracyProxies(r.seed)
	return memory + "\n" + accuracy, err
}

func (r *reportRun) fig3() (string, error) {
	if r.trials == nil {
		if _, err := r.table3(); err != nil {
			return "", err
		}
	}
	return Fig3(r.trials), nil
}
