package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/join"
)

func implements[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// captureStart records the stepper the default algorithm starts.
type captureStart struct {
	join.Innet
	st join.Stepper
}

func (c *captureStart) Start(cfg *join.Config) join.Stepper {
	c.st = c.Innet.Start(cfg)
	return c.st
}

// The traced wrapper forwards a fixed set of optional stepper
// capabilities. If the In-Net stepper drops one, the wrapper would claim
// a capability the engine then calls into; this test fails first.
func TestInnetStepperHasEveryForwardedCapability(t *testing.T) {
	e := engine.New(engine.Options{})
	c := &captureStart{Innet: defaultAlgorithm}
	if _, err := e.Submit(engine.QueryConfig{SQL: poolSQL[0], Algorithm: c}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	st := c.st
	for name, ok := range map[string]bool{
		"join.FailureRecoverer":   implements[join.FailureRecoverer](st),
		"join.LinkFaultRecoverer": implements[join.LinkFaultRecoverer](st),
		"join.Adaptive":           implements[join.Adaptive](st),
		"join.MemReporter":        implements[join.MemReporter](st),
		"join.StateSized":         implements[join.StateSized](st),
		"join.LossReporter":       implements[join.LossReporter](st),
	} {
		if !ok {
			t.Errorf("In-Net stepper %T no longer implements %s, which the traced wrapper forwards", st, name)
		}
	}
	var _ innetStepper = (*tracedStepper)(nil)
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		if p != 50 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
	xs := make([]time.Duration, 200)
	for i := range xs {
		xs[len(xs)-1-i] = time.Duration(i + 1)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %d, want 190 (nearest rank)", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %d, want 100", got)
	}
}

func TestSelfTimeSubtractsCoveredWall(t *testing.T) {
	root := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first: a parallel worker
		{Start: 60, End: 60},  // empty
		{Start: 90, End: 120}, // ends after the parent: clipped
	}
	if got := covered(root.Start, root.End, kids); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := selfTime(root, kids); got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
}

// short returns w with a few epochs per pass, for tests.
func short(w *workloadDef) *workloadDef {
	s := *w
	s.ramp, s.steady = 4, 8
	return &s
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"arrivals-100", "faults-1k"} {
		w := short(workloadByName(name))
		p := w.plan(7, w.ramp+w.steady)
		u, err := runPass(w, &p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runPass(w, &p, 0, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(u.canon, tr.canon) {
			t.Errorf("%s: traced report differs from untraced", name)
		}
		sum, err := spanSum(tr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d := sum - tr.loop; d < -tr.loop/20 || d > tr.loop/20 {
			t.Errorf("%s: span self times sum to %v, measured %v in Submit and Step", name, sum, tr.loop)
		}
		names := map[string]bool{}
		for _, q := range tr.rec.queries {
			for _, s := range q.spans {
				names[s.Name] = true
			}
		}
		want := []string{"join.start", "join.step", "join.finish"}
		if name == "faults-1k" {
			want = append(want, "join.adapt", "join.link_recover")
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %s span recorded", name, n)
			}
		}
		one, err := runPass(w, &p, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(u.canon, one.canon) {
			t.Errorf("%s: Workers=1 report differs", name)
		}
	}
}

func TestPlansDeriveFromSeed(t *testing.T) {
	for _, w := range workloads {
		a := []plan{w.draw(3, 0), w.draw(3, 1)}
		b := []plan{w.draw(3, 0), w.draw(3, 1)}
		c := []plan{w.draw(4, 0), w.draw(4, 1)}
		if reflect.DeepEqual(arrivalsOf(a[:1]), arrivalsOf(a[1:])) && reflect.DeepEqual(a[0].opts, a[1].opts) {
			t.Errorf("%s: two draws of one seed gave the same inputs", w.name)
		}
		if !reflect.DeepEqual(arrivalsOf(a), arrivalsOf(b)) || !reflect.DeepEqual(a[0].opts.Churn, b[0].opts.Churn) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if reflect.DeepEqual(arrivalsOf(a), arrivalsOf(c)) && reflect.DeepEqual(a[0].opts, c[0].opts) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
		}
	}
}

// arrivalsOf strips the sampler constructors, which compare unequal.
func arrivalsOf(plans []plan) [][]arrival {
	var out [][]arrival
	for _, p := range plans {
		as := make([]arrival, len(p.arrivals))
		for i, a := range p.arrivals {
			a.sampler = nil
			as[i] = a
		}
		out = append(out, as)
	}
	return out
}
