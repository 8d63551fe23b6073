// Package adapt implements the paper's adaptive re-optimization (section
// 6): a join node tracks, per producer pair, the number of tuples received
// from each producer and the number of join results produced, re-estimates
// the selectivities on a fixed interval, and signals when the estimates
// diverge from the values the current placement was optimized for by more
// than the trigger ratio (33% in the paper), prompting a join-node
// migration. Counters reset periodically so learning tracks a local time
// span rather than the whole history.
package adapt

import "repro/internal/costmodel"

// Defaults for the paper's adaptivity machinery.
const (
	// DefaultTrigger is the divergence ratio that triggers re-placement
	// ("estimates diverge by more than 33% from their previous values").
	DefaultTrigger = 0.33
	// DefaultInterval is the re-estimation period in sampling cycles
	// ("according to a pre-specified time interval").
	DefaultInterval = 10
	// DefaultReset is the counter reset period ("Ns, Nt, Nst and T are
	// periodically reset to 0 to allow learning within a local time
	// span").
	DefaultReset = 100
)

// Estimator learns one producer pair's selectivities at its join node.
type Estimator struct {
	// Applied are the parameter values the pair's current placement was
	// optimized with; a trigger updates them.
	Applied costmodel.Params
	// Trigger is the divergence ratio; Interval and Reset the periods.
	Trigger  float64
	Interval int
	Reset    int

	ns, nt, nst int
	cycles      int
	// haveEstimate delays triggering until at least one full interval has
	// been observed.
	sinceEstimate int
	// lastCycle is the highest cycle number EndCycle has accounted; repeat
	// calls for the same (or an earlier) cycle are no-ops, so closing a
	// cycle twice never double-advances the estimation clock.
	lastCycle int
}

// New returns an estimator for a pair currently optimized with applied.
func New(applied costmodel.Params) *Estimator {
	return &Estimator{
		Applied:   applied,
		Trigger:   DefaultTrigger,
		Interval:  DefaultInterval,
		Reset:     DefaultReset,
		lastCycle: -1,
	}
}

// ObserveS records an arriving s tuple.
func (e *Estimator) ObserveS() { e.ns++ }

// ObserveT records an arriving t tuple.
func (e *Estimator) ObserveT() { e.nt++ }

// ObserveResults records n join results produced for the pair.
func (e *Estimator) ObserveResults(n int) { e.nst += n }

// Estimates returns the current selectivity estimates:
// sigma_st = Nst / (w*(Ns+Nt)) and sigma_p = Np / T (section 6). ok is
// false until at least one cycle has been observed.
func (e *Estimator) Estimates() (p costmodel.Params, ok bool) {
	if e.cycles == 0 {
		return e.Applied, false
	}
	p = e.Applied
	p.SigmaS = float64(e.ns) / float64(e.cycles)
	p.SigmaT = float64(e.nt) / float64(e.cycles)
	if tot := e.ns + e.nt; tot > 0 && e.Applied.W > 0 {
		p.SigmaST = float64(e.nst) / (float64(e.Applied.W) * float64(tot))
	}
	return p, true
}

// EndCycle closes the given cycle, advancing the estimation clock by one,
// and on estimation boundaries checks for divergence. When the estimates
// diverge beyond Trigger it returns the fresh parameters and triggered=true;
// the caller re-places the join node and the estimator adopts the new
// parameters as Applied. Counters reset on the Reset period.
//
// EndCycle is idempotent per cycle number: closing a cycle that has already
// been closed (or any earlier one) returns (Applied, false) without touching
// any counter. Cycle numbers follow the Stepper BeginCycle contract — they
// are per-query and monotonically non-decreasing, not globally unique — so
// a caller that re-closes a cycle still advances the clock exactly once
// per cycle.
func (e *Estimator) EndCycle(cycle int) (fresh costmodel.Params, triggered bool) {
	if cycle <= e.lastCycle {
		return e.Applied, false
	}
	e.lastCycle = cycle
	e.cycles++
	e.sinceEstimate++
	if e.sinceEstimate >= e.Interval {
		e.sinceEstimate = 0
		if p, ok := e.Estimates(); ok {
			if costmodel.Diverged(e.Applied.SigmaS, p.SigmaS, e.Trigger) ||
				costmodel.Diverged(e.Applied.SigmaT, p.SigmaT, e.Trigger) ||
				costmodel.Diverged(e.Applied.SigmaST, p.SigmaST, e.Trigger) {
				e.Applied = p
				triggered = true
				fresh = p
			}
		}
	}
	if e.cycles >= e.Reset {
		e.ns, e.nt, e.nst, e.cycles = 0, 0, 0, 0
	}
	if !triggered {
		fresh = e.Applied
	}
	return fresh, triggered
}
