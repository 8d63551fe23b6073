package main

import (
	"bytes"
	"fmt"
)

// defaultSeed is the seed the committed fingerprints were recorded at.
const defaultSeed = 1

// fingerprint is a round's simulated outcome summed over its passes: the
// traffic, the results and every recovery and adaptivity counter. It is a
// pure function of the workload and seed.
type fingerprint struct {
	SimBytes                                  int64
	Results, ResultsLost                      int
	FailedNodes, PathsRepaired, BaseFallbacks int
	TreesRebuilt, LinkRerouted, LinkFallbacks int
	Migrations, MigrationsAborted             int
}

// committed holds each workload's fingerprint at defaultSeed. A program
// change that moves one changes what the engine computes, not only how
// fast; re-record it only for a change meant to alter simulated output.
var committed = map[string]fingerprint{
	"arrivals-100": {SimBytes: 193446913, Results: 531763, ResultsLost: 10},
	"scale-10k":    {SimBytes: 290875282, Results: 25980, ResultsLost: 2},
	"faults-1k": {SimBytes: 105484634, Results: 173221, ResultsLost: 0,
		FailedNodes: 157, PathsRepaired: 91, BaseFallbacks: 218,
		TreesRebuilt: 202, LinkRerouted: 939, LinkFallbacks: 1266,
		Migrations: 9287, MigrationsAborted: 24},
}

func fingerprintOf(round []pass) fingerprint {
	var f fingerprint
	for _, p := range round {
		r := p.rep
		f.SimBytes += r.AggregateBytes
		f.Results += r.Results
		f.ResultsLost += r.ResultsLost
		f.FailedNodes += r.FailedNodes
		f.PathsRepaired += r.PathsRepaired
		f.BaseFallbacks += r.BaseFallbacks
		f.TreesRebuilt += r.TreesRebuilt
		f.LinkRerouted += r.LinkRerouted
		f.LinkFallbacks += r.LinkFallbacks
		f.Migrations += r.Migrations
		f.MigrationsAborted += r.MigrationsAborted
	}
	return f
}

// checks collects a run's operation counts and every failed output check.
type checks struct {
	attempted, failed, rounds int
	errs                      []string
}

func (c *checks) errorf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// count books a pass's submitted queries; a pass that panicked fails
// every query it submitted.
func (c *checks) count(p pass, err error) {
	c.attempted += p.submitted
	if err != nil {
		c.failed += p.submitted
		c.errorf("%v", err)
		return
	}
	c.failed += p.failed
}

// identity checks the sim accounting identity on every pass.
func (c *checks) identity(passes []pass) {
	for i, p := range passes {
		if r := p.rep; r.AggregateBytes != r.SharedBytes+r.QueryBytes {
			c.errorf("pass %d: AggregateBytes %d != SharedBytes %d + QueryBytes %d", i, r.AggregateBytes, r.SharedBytes, r.QueryBytes)
		}
	}
}

// same checks that other passes (traced, or with one worker) reproduce
// the reports of the untraced passes of the same draws byte for byte.
func (c *checks) same(what string, ref, other []pass) {
	for i, p := range other {
		if !bytes.Equal(p.canon, ref[i].canon) {
			c.errorf("%s pass %d: report differs from the untraced pass of the same draw", what, i)
		}
	}
}

// fingerprint checks the first round against the committed fingerprint
// at the default seed; at other seeds it has no reference.
func (c *checks) fingerprint(w *workloadDef, seed uint64, round []pass) {
	if seed != defaultSeed {
		return
	}
	if got, want := fingerprintOf(round), committed[w.name]; got != want {
		c.errorf("fingerprint at seed %d is %+v, committed %+v", seed, got, want)
	}
}

// workerInvariance reruns the first draw with one worker when the
// workload steps in parallel; the report must not change.
func (c *checks) workerInvariance(w *workloadDef, seed uint64, ref pass) {
	if ref.plan.opts.Workers <= 1 {
		return
	}
	pl := w.draw(seed, 0)
	p, err := runPass(w, &pl, 1, nil)
	c.count(p, err)
	if err == nil {
		c.same("Workers=1", []pass{ref}, []pass{p})
	}
}
