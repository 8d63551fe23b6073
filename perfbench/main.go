package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/rng"
)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported figure; note, when set, is printed beside it in
// the human-readable table.
type metric struct {
	name, unit string
	value      float64
	note       string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: arrivals-100, scale-10k or faults-1k")
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 10, "measure whole rounds of passes until this many seconds have passed")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span files to (empty: do not write)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload arrivals-100|scale-10k|faults-1k, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	var (
		m       []metric
		verdict checks
		res     result
	)
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		m, verdict = untracedRun(w, *seed, budget)
	} else {
		m, verdict = tracedRun(w, *seed, budget, *spans)
	}
	res.Attempted, res.Failed = verdict.attempted, verdict.failed
	res.Correct = len(verdict.errs) == 0 && verdict.failed == 0
	for _, e := range verdict.errs {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", e)
	}
	res.Metrics = make(map[string]metricValue, len(m))
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %d  %d rounds of %d passes\n", w.name, *seed, *trace, verdict.rounds, w.draws)
	for _, x := range m {
		fmt.Fprintf(stdout, "  %-34s %14.6g %-7s %s\n", x.name, x.value, x.unit, x.note)
		res.Metrics[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// draw derives input draw i of the run's sequence from the workload seed.
func (w *workloadDef) draw(seed uint64, i int) plan {
	return w.plan(rng.New(seed).Split(uint64(i)).Uint64(), w.ramp+w.steady)
}

// rounds runs rounds of w.draws passes, each on the next draw of the
// seed's input sequence, until the budget is spent. It always finishes
// the round it is in, so every draw of a run weighs the same. Draw i is
// the same in every run at a seed; only how many rounds fit varies.
func rounds(w *workloadDef, seed uint64, budget time.Duration, fn func(p *plan) error) (int, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		for k := 0; k < w.draws; k++ {
			p := w.draw(seed, n*w.draws+k)
			if err := fn(&p); err != nil {
				return n, err
			}
		}
		n++
	}
	return n, nil
}
