package adapt

import (
	"math"
	"testing"

	"repro/internal/costmodel"
)

func params(ss, st, sst float64, w int) costmodel.Params {
	return costmodel.Params{SigmaS: ss, SigmaT: st, SigmaST: sst, W: w}
}

func TestEstimatesFormula(t *testing.T) {
	e := New(params(0.5, 0.5, 0.1, 3))
	// 10 cycles: 5 s tuples, 10 t tuples, 9 results.
	for i := 0; i < 5; i++ {
		e.ObserveS()
	}
	for i := 0; i < 10; i++ {
		e.ObserveT()
	}
	e.ObserveResults(9)
	e.cycles = 10
	p, ok := e.Estimates()
	if !ok {
		t.Fatal("estimates unavailable")
	}
	if math.Abs(p.SigmaS-0.5) > 1e-12 || math.Abs(p.SigmaT-1.0) > 1e-12 {
		t.Fatalf("producer estimates (%v, %v)", p.SigmaS, p.SigmaT)
	}
	// sigma_st = 9 / (3 * 15) = 0.2
	if math.Abs(p.SigmaST-0.2) > 1e-12 {
		t.Fatalf("sigma_st = %v, want 0.2", p.SigmaST)
	}
}

func TestNoEstimateBeforeObservation(t *testing.T) {
	e := New(params(0.5, 0.5, 0.1, 3))
	if _, ok := e.Estimates(); ok {
		t.Fatal("estimates claimed before any cycle")
	}
}

func TestTriggerOnDivergence(t *testing.T) {
	e := New(params(1.0, 1.0, 0.2, 3))
	// Feed 10 cycles in which sigma_s is actually ~0.1: divergence > 33%.
	triggered := false
	for c := 0; c < DefaultInterval; c++ {
		if c == 0 {
			e.ObserveS()
		}
		for i := 0; i < 1; i++ {
			e.ObserveT()
		}
		if _, trig := e.EndCycle(c); trig {
			triggered = true
		}
	}
	if !triggered {
		t.Fatal("estimator did not trigger on gross divergence")
	}
	// Applied must have adopted the learned value (~0.1), replacing 1.0.
	if e.Applied.SigmaS > 0.5 {
		t.Fatalf("Applied.SigmaS = %v not updated toward 0.1", e.Applied.SigmaS)
	}
}

func TestNoTriggerWhenAccurate(t *testing.T) {
	e := New(params(1.0, 1.0, 0.2, 1))
	for c := 0; c < 50; c++ {
		e.ObserveS()
		e.ObserveT()
		// 0.2 of tuple arrivals produce results: Nst = 0.2*W*(Ns+Nt).
		if c%5 == 0 {
			e.ObserveResults(2)
		}
		if _, trig := e.EndCycle(c); trig {
			t.Fatalf("spurious trigger at cycle %d", c)
		}
	}
}

func TestCounterReset(t *testing.T) {
	e := New(params(1, 1, 0.2, 1))
	e.Reset = 5
	e.Interval = 100 // never estimate in this test
	for c := 0; c < 5; c++ {
		e.ObserveS()
		e.EndCycle(c)
	}
	if e.ns != 0 || e.cycles != 0 {
		t.Fatalf("counters not reset: ns=%d cycles=%d", e.ns, e.cycles)
	}
}

func TestTriggerOnlyOnIntervalBoundary(t *testing.T) {
	e := New(params(1, 1, 0.2, 1))
	e.Interval = 10
	// Gross divergence from cycle 0, but no trigger before cycle 10.
	for c := 0; c < 9; c++ {
		if _, trig := e.EndCycle(c); trig {
			t.Fatalf("triggered mid-interval at cycle %d", c)
		}
	}
	if _, trig := e.EndCycle(9); !trig {
		t.Fatal("no trigger at interval boundary despite divergence")
	}
}

func TestAdoptedParamsStopRetriggering(t *testing.T) {
	e := New(params(1, 1, 0.5, 1))
	// A stable workload with sigma_s = sigma_t = 1, sigma_st = 0.5.
	trigs := 0
	for c := 0; c < 200; c++ {
		e.ObserveS()
		e.ObserveT()
		e.ObserveResults(1) // 1/(1*2) = 0.5
		if _, trig := e.EndCycle(c); trig {
			trigs++
		}
	}
	if trigs > 1 {
		t.Fatalf("stable workload retriggered %d times", trigs)
	}
}

// TestEndCycleIdempotentPerCycle is the regression test for the
// BeginCycle contract: a caller may close the same cycle more than once,
// and the estimation clock must advance exactly once.
func TestEndCycleIdempotentPerCycle(t *testing.T) {
	e := New(params(1, 1, 0.2, 1))
	e.Interval = 10
	// Close every cycle twice. Divergence is gross (no observations
	// against applied sigma=1), so with a correctly advancing clock the
	// first trigger lands exactly when cycle 9 closes.
	for c := 0; c < 9; c++ {
		if _, trig := e.EndCycle(c); trig {
			t.Fatalf("triggered mid-interval at cycle %d", c)
		}
		if _, trig := e.EndCycle(c); trig {
			t.Fatalf("duplicate close of cycle %d advanced the clock", c)
		}
	}
	if got := e.cycles; got != 9 {
		t.Fatalf("clock advanced %d times for 9 distinct cycles", got)
	}
	if _, trig := e.EndCycle(9); !trig {
		t.Fatal("no trigger at interval boundary despite divergence")
	}
	// A stale close (earlier cycle number) must also be a no-op.
	if _, trig := e.EndCycle(3); trig {
		t.Fatal("stale cycle close triggered")
	}
	if got := e.cycles; got != 10 {
		t.Fatalf("stale close advanced the clock: cycles=%d", got)
	}
}

// TestTriggerBoundary pins the strict-inequality semantics of the 33%
// trigger at the boundary. Applied sigma_s is 1.0 and the estimator observes
// an s tuple in the first ns of 1000 cycles, so the estimate is ns/1000 and
// the divergence is (1000-ns)/1000 exactly. sigma_t is kept accurate (one t
// tuple per cycle) and sigma_st is 0 on both sides so only sigma_s decides.
func TestTriggerBoundary(t *testing.T) {
	cases := []struct {
		name string
		ns   int // s observations over the 1000-cycle interval
		want bool
	}{
		{"divergence 32.9% stays", 671, false},
		{"divergence 33.0% stays (strict >)", 670, false},
		{"divergence 33.1% triggers", 669, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(params(1.0, 1.0, 0, 1))
			e.Interval = 1000
			e.Reset = 1 << 30 // keep counters across the long interval
			triggered := false
			for c := 0; c < 1000; c++ {
				if c < tc.ns {
					e.ObserveS()
				}
				e.ObserveT()
				if _, trig := e.EndCycle(c); trig {
					triggered = true
				}
			}
			if triggered != tc.want {
				t.Fatalf("ns=%d: triggered=%v, want %v", tc.ns, triggered, tc.want)
			}
		})
	}
}

// TestTriggerRateEdges covers the degenerate rate edges around the trigger:
// a producer rate collapsing to zero, a zero applied rate seeing traffic (a
// burst from a silent producer), and zero on both sides.
func TestTriggerRateEdges(t *testing.T) {
	cases := []struct {
		name    string
		applied float64 // Applied.SigmaS
		observe bool    // one s tuple every cycle vs none
		want    bool
	}{
		{"rate collapses to zero", 0.8, false, true},
		{"burst on zero applied rate", 0, true, true},
		{"zero rate stays zero", 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(params(tc.applied, 1.0, 0, 1))
			triggered := false
			for c := 0; c < DefaultInterval; c++ {
				if tc.observe {
					e.ObserveS()
				}
				e.ObserveT()
				if _, trig := e.EndCycle(c); trig {
					triggered = true
				}
			}
			if triggered != tc.want {
				t.Fatalf("applied=%v observe=%v: triggered=%v, want %v",
					tc.applied, tc.observe, triggered, tc.want)
			}
		})
	}
}
