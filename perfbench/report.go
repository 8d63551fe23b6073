package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(w *workloadDef, seed uint64, budget time.Duration) ([]metric, checks) {
	var c checks
	var passes []pass
	n, err := rounds(w, seed, budget, func(pl *plan) error {
		p, err := runPass(w, pl, 0, nil)
		c.count(p, err)
		passes = append(passes, p)
		return err
	})
	c.rounds = n
	if err != nil {
		return nil, c
	}
	c.identity(passes)
	c.fingerprint(w, seed, passes[:w.draws])
	c.workerInvariance(w, seed, passes[0])
	return endToEnd(passes, w.draws), c
}

// tracedRun alternates an untraced and a traced pass of every plan, and
// reports the per-layer metrics from the traced passes, except those
// tracing would disturb, which come from the untraced ones.
func tracedRun(w *workloadDef, seed uint64, budget time.Duration, spanDir string) ([]metric, checks) {
	var c checks
	var untraced, traced []pass
	var topoGen, subBuild []float64
	n, err := rounds(w, seed, budget, func(pl *plan) error {
		u, err := runPass(w, pl, 0, nil)
		c.count(u, err)
		if err != nil {
			return err
		}
		untraced = append(untraced, u)
		tg, sb := setupProbe(pl)
		topoGen, subBuild = append(topoGen, ms(tg)), append(subBuild, ms(sb))
		t, err := runPass(w, pl, 0, newRecorder())
		c.count(t, err)
		traced = append(traced, t)
		return err
	})
	c.rounds = n
	if err != nil {
		return nil, c
	}
	c.identity(untraced)
	c.same("traced", untraced, traced)
	c.fingerprint(w, seed, untraced[:w.draws])
	c.workerInvariance(w, seed, untraced[0])
	// The span tree must account for the time the driver's own stopwatch
	// measured in Submit and Step, to within 5%.
	var spans time.Duration
	for i, t := range traced {
		s, err := spanSum(t)
		if err != nil {
			c.errorf("traced pass %d: %v", i, err)
		}
		spans += s
	}
	spanShare := float64(spans) / float64(sumLoop(traced))
	if spanShare < 0.95 || spanShare > 1.05 {
		c.errorf("span self times sum to %.3f of the time measured in Submit and Step", spanShare)
	}
	if spanDir != "" {
		if err := traced[0].rec.writeSpans(filepath.Join(spanDir, w.name+".jsonl")); err != nil {
			c.errorf("writing spans: %v", err)
		}
	}
	m := []metric{
		{name: "topology.generate_ms", unit: "ms", value: median(topoGen)},
		{name: "routing.substrate_build_ms", unit: "ms", value: median(subBuild)},
	}
	m = append(m, layers(traced)...)
	m = append(m, untracedLayers(untraced)...)
	m = append(m, metric{name: "trace.overhead_ratio", unit: "ratio", value: float64(sumLoop(traced)) / float64(sumLoop(untraced)),
		note: fmt.Sprintf("traced / untraced time in Submit and Step; span self times sum to %.4f of the traced time", spanShare)})
	return m, c
}

// setupProbe times the two construction steps engine.New runs, with the
// arguments engine.New passes them for this plan (its defaults: topology
// seed 1, 3 trees, 5% loss, engine seed 1).
func setupProbe(p *plan) (topoGen, subBuild time.Duration) {
	o := p.opts
	t0 := time.Now()
	topo := topology.Generate(o.Kind, o.Nodes, 1)
	topoGen = time.Since(t0)
	net := sim.NewSharedNetwork(topo, 0.05, 1^0xA59E17, topology.NewLiveness(topo.N()))
	if o.Faults != nil {
		net.SetFaults(faults.NewPlan(topo, *o.Faults))
	}
	t1 := time.Now()
	routing.NewSubstrate(topo, routing.Options{NumTrees: 3}, net)
	return topoGen, time.Since(t1)
}

func sumLoop(ps []pass) time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.loop
	}
	return d
}

// endToEnd computes the user-visible metrics of an untraced run. Each
// timing is computed per round and reported as the median over rounds,
// so that a burst of machine noise in one round does not move it. The
// tail percentile is chosen from the smallest round's sample count, so
// every round leaves at least 10 samples beyond it.
func endToEnd(passes []pass, draws int) []metric {
	var setups []float64
	var heap float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		heap += float64(p.heap)
	}
	type round struct {
		epochs, admits []time.Duration
		steady         time.Duration
		queryEpochs    int
	}
	var rs []round
	minEpochs, minAdmits := -1, -1
	for r := 0; r < len(passes); r += draws {
		var x round
		for _, p := range passes[r : r+draws] {
			x.epochs = append(x.epochs, p.epochs...)
			x.admits = append(x.admits, p.admits...)
			x.steady += p.steady
			x.queryEpochs += p.queryEpochs
		}
		if minEpochs < 0 || len(x.epochs) < minEpochs {
			minEpochs = len(x.epochs)
		}
		if minAdmits < 0 || len(x.admits) < minAdmits {
			minAdmits = len(x.admits)
		}
		rs = append(rs, x)
	}
	ep, ap := tailPercentile(minEpochs), tailPercentile(minAdmits)
	overRounds := func(f func(x round) float64) float64 {
		v := make([]float64, len(rs))
		for i, x := range rs {
			v[i] = f(x)
		}
		return median(v)
	}
	var simBytes, baseBytes int64
	var results int
	var delay float64
	for _, p := range passes[:draws] {
		simBytes += p.rep.AggregateBytes
		for _, q := range p.rep.Queries {
			baseBytes += q.BaseBytes
			results += q.Results
			delay += q.MeanDelay * float64(q.Results)
		}
	}
	perRound := fmt.Sprintf("median of %d rounds", len(rs))
	return []metric{
		{name: "setup_s", unit: "s", value: median(setups), note: fmt.Sprintf("median of %d set-ups", len(setups))},
		{name: "epoch_p50_ms", unit: "ms", value: overRounds(func(x round) float64 { return ms(percentile(x.epochs, 50)) }),
			note: fmt.Sprintf("%s of n=%d", perRound, minEpochs)},
		{name: "epoch_tail_ms", unit: "ms", value: overRounds(func(x round) float64 { return ms(percentile(x.epochs, ep)) }),
			note: fmt.Sprintf("p%g, %s of n=%d", ep, perRound, minEpochs)},
		{name: "admit_p50_ms", unit: "ms", value: overRounds(func(x round) float64 { return ms(percentile(x.admits, 50)) }),
			note: fmt.Sprintf("%s of n>=%d", perRound, minAdmits)},
		{name: "admit_tail_ms", unit: "ms", value: overRounds(func(x round) float64 { return ms(percentile(x.admits, ap)) }),
			note: fmt.Sprintf("p%g, %s of n>=%d", ap, perRound, minAdmits)},
		{name: "query_epochs_per_s", unit: "1/s", value: overRounds(func(x round) float64 { return float64(x.queryEpochs) / x.steady.Seconds() }),
			note: perRound},
		{name: "live_heap_mb", unit: "MB", value: heap / float64(len(passes)) / (1 << 20), note: "mean per pass"},
		{name: "sim_bytes", unit: "bytes", value: float64(simBytes) / float64(draws), note: "mean per pass of the first round"},
		{name: "base_bytes", unit: "bytes", value: float64(baseBytes) / float64(draws), note: "mean per pass of the first round"},
		{name: "result_delay_epochs", unit: "epochs", value: delay / float64(max(results, 1)), note: "first round"},
	}
}

// layers computes the per-layer metrics from the traced passes' spans.
// Times are means per call; counts are means per pass.
func layers(passes []pass) []metric {
	type acc struct {
		d time.Duration
		n int
	}
	calls := map[string]acc{}
	tally := func(s span) {
		a := calls[s.Name]
		a.d += s.dur()
		a.n++
		calls[s.Name] = a
	}
	var self, churnSelf acc
	var stepSum, stepCovered time.Duration
	var q queryTrace
	var retained, lost, results int
	var shared, init, queryBytes, rebuilt, patched int64
	for _, p := range passes {
		kids := p.rec.children()
		for i, r := range p.rec.roots {
			tally(r)
			var steps []span
			for _, k := range kids[i] {
				tally(k)
				if k.Name == "join.step" {
					steps = append(steps, k)
					stepSum += k.dur()
				}
			}
			if r.Name != "engine.Step" {
				continue
			}
			stepCovered += covered(r.Start, r.End, steps)
			s := selfTime(r, kids[i])
			self.d += s
			self.n++
			if p.plan.churnEpochs[r.Epoch] {
				churnSelf.d += s
				churnSelf.n++
			}
		}
		for _, t := range p.rec.queries {
			q.startAllocBytes += t.startAllocBytes
			q.repaired += t.repaired
			q.fallbacks += t.fallbacks
			q.rerouted += t.rerouted
			q.linkFallbacks += t.linkFallbacks
			q.migrated += t.migrated
			q.aborted += t.aborted
		}
		retained += p.retained
		r := p.rep
		lost += r.ResultsLost
		results += r.Results
		shared += r.SharedBytes
		queryBytes += r.QueryBytes
		rebuilt += int64(r.TreesRebuilt)
		patched += int64(r.TreesPatched)
		for _, qr := range r.Queries {
			init += qr.InitBytes
		}
	}
	// Ratios read 0 when their base is 0, as on workloads without churn.
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(a acc, unit time.Duration) float64 { return ratio(float64(a.d)/float64(unit), float64(a.n)) }
	perPass := func(v int64) float64 { return float64(v) / float64(len(passes)) }
	share := func(a, b int64) float64 { return ratio(float64(a), float64(a+b)) }
	return []metric{
		{name: "engine.submit_ms", unit: "ms", value: mean(calls["engine.Submit"], time.Millisecond)},
		{name: "join.admit_ms", unit: "ms", value: mean(calls["join.start"], time.Millisecond)},
		{name: "join.admit_calls", unit: "count", value: perPass(int64(calls["join.start"].n))},
		{name: "join.admit_alloc_kb", unit: "KiB", value: ratio(float64(q.startAllocBytes)/1024, float64(calls["join.start"].n))},
		{name: "join.step_us", unit: "us", value: mean(calls["join.step"], time.Microsecond)},
		{name: "join.step_calls", unit: "count", value: perPass(int64(calls["join.step"].n))},
		{name: "join.finish_ms", unit: "ms", value: mean(calls["join.finish"], time.Millisecond)},
		{name: "engine.step_parallelism", unit: "ratio", value: ratio(float64(stepSum), float64(stepCovered))},
		{name: "join.recover_ms", unit: "ms", value: mean(calls["join.recover"], time.Millisecond)},
		{name: "join.paths_repaired", unit: "count", value: perPass(int64(q.repaired))},
		{name: "join.base_fallbacks", unit: "count", value: perPass(int64(q.fallbacks))},
		{name: "join.repair_ratio", unit: "ratio", value: share(int64(q.repaired), int64(q.fallbacks))},
		{name: "join.link_recover_ms", unit: "ms", value: mean(calls["join.link_recover"], time.Millisecond)},
		{name: "faults.link_rerouted", unit: "count", value: perPass(int64(q.rerouted))},
		{name: "faults.link_fallbacks", unit: "count", value: perPass(int64(q.linkFallbacks))},
		{name: "routing.trees_rebuilt", unit: "count", value: perPass(rebuilt)},
		{name: "routing.trees_patched", unit: "count", value: perPass(patched)},
		{name: "routing.patch_ratio", unit: "ratio", value: ratio(float64(patched), float64(rebuilt))},
		{name: "join.adapt_ms", unit: "ms", value: mean(calls["join.adapt"], time.Millisecond)},
		{name: "adapt.migrations", unit: "count", value: perPass(int64(q.migrated))},
		{name: "adapt.aborted", unit: "count", value: perPass(int64(q.aborted))},
		{name: "adapt.commit_ratio", unit: "ratio", value: share(int64(q.migrated), int64(q.aborted))},
		{name: "engine.self_ms", unit: "ms", value: mean(self, time.Millisecond), note: "per Step"},
		{name: "engine.self_churn_ms", unit: "ms", value: mean(churnSelf, time.Millisecond), note: fmt.Sprintf("per churn Step, %d of them", churnSelf.n)},
		{name: "engine.retained_queries", unit: "count", value: perPass(int64(retained))},
		{name: "sim.shared_bytes", unit: "bytes", value: perPass(shared)},
		{name: "sim.init_bytes", unit: "bytes", value: perPass(init)},
		{name: "sim.query_bytes", unit: "bytes", value: perPass(queryBytes)},
		{name: "sim.results_lost_ratio", unit: "ratio", value: share(int64(lost), int64(results))},
	}
}

// untracedLayers reports, from the untraced passes of a traced run, the
// figures tracing would disturb: the share of steady-state epochs that
// overran the sample interval, and the Go runtime's allocation and GC
// figures over the epoch loops.
func untracedLayers(passes []pass) []metric {
	var alloc, gcs uint64
	var pause time.Duration
	var queryEpochs, epochs, overruns int
	for _, p := range passes {
		alloc += p.allocBytes
		gcs += p.gcCycles
		pause += p.gcPause
		queryEpochs += p.allQueryEpochs
		for _, d := range p.epochs {
			epochs++
			if d > sampleIntervalMS*time.Millisecond {
				overruns++
			}
		}
	}
	n := float64(len(passes))
	return []metric{
		{name: "engine.epoch_overrun_ratio", unit: "ratio", value: float64(overruns) / float64(max(epochs, 1)),
			note: fmt.Sprintf("epochs over the %d ms sample interval", sampleIntervalMS)},
		{name: "runtime.alloc_kb_per_query_epoch", unit: "KiB", value: float64(alloc) / 1024 / float64(max(queryEpochs, 1))},
		{name: "runtime.gc_cycles", unit: "count", value: float64(gcs) / n, note: "per pass"},
		{name: "runtime.gc_pause_ms", unit: "ms", value: ms(pause) / n, note: "per pass"},
	}
}

// spanSum adds up the span tree of a traced pass: each Submit and Step
// root's self time plus the wall its children cover. It fails when a
// child lies outside its parent.
func spanSum(p pass) (time.Duration, error) {
	kids := p.rec.children()
	var sum time.Duration
	for i, r := range p.rec.roots {
		if r.Name != "engine.Submit" && r.Name != "engine.Step" {
			continue
		}
		for _, k := range kids[i] {
			if k.Start < r.Start || k.End > r.End {
				return 0, fmt.Errorf("%s span of %s lies outside its parent %s", k.Name, k.Query, r.Name)
			}
		}
		sum += selfTime(r, kids[i]) + covered(r.Start, r.End, kids[i])
	}
	return sum, nil
}
