// Package join implements the paper's join execution algorithms over the
// simulator substrate: the grouped baselines Naive and Base (join at the
// base station), the through-the-base algorithm of Yang+07, the GHT
// grouped join, and the pairwise In-Net algorithm with cost-model join
// node placement (section 3), including its MPO variants (multicast,
// group optimization, path collapsing — section 5), adaptive selectivity
// learning (section 6), and join-node failure recovery (section 7).
package join

import (
	"repro/internal/costmodel"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config is everything one run needs. The same Config (and the same seeds
// inside Net and Sampler) handed to different algorithms yields an
// apples-to-apples comparison on identical data.
type Config struct {
	Topo    *topology.Topology
	Net     *sim.Network
	Sub     *routing.Substrate
	Spec    *workload.Spec
	Sampler workload.Sampler
	// Opt carries the selectivity estimates the optimizer is given at
	// initiation. They may be wrong; learning variants converge away from
	// them.
	Opt costmodel.Params
	// Cycles is the number of sampling cycles to execute.
	Cycles int

	// FailNode/FailCycle inject a permanent node failure (section 7).
	// FailNode < 0 disables injection.
	FailNode  topology.NodeID
	FailCycle int

	// Merge enables Appendix E's opportunistic packet merging on the
	// join-at-base data path: tuples sharing tree links ride one packet.
	Merge bool
}

// NewConfig fills the failure fields with their disabled defaults.
func NewConfig(topo *topology.Topology, net *sim.Network, sub *routing.Substrate, spec *workload.Spec, sampler workload.Sampler, opt costmodel.Params, cycles int) *Config {
	return &Config{
		Topo: topo, Net: net, Sub: sub, Spec: spec, Sampler: sampler,
		Opt: opt, Cycles: cycles, FailNode: -1, FailCycle: -1,
	}
}

// Result aggregates everything the paper's figures report about one run.
type Result struct {
	// Algorithm is the display name ("Naive", "Innet-cmg", ...).
	Algorithm string
	// InitBytes/InitMessages are the initiation-phase costs; the totals
	// below include them. InitBaseBytes is the initiation traffic at the
	// base station (Figure 6's comparison quantity).
	InitBytes     int64
	InitMessages  int64
	InitBaseBytes int64
	// TotalBytes etc. snapshot the network metrics at the end of the run.
	TotalBytes    int64
	TotalMessages int64
	BaseBytes     int64
	BaseMessages  int64
	MaxNodeBytes  int64
	Drops         int64
	// Results counts join results delivered to the base station.
	Results int
	// ResultsLost counts join results computed at a join node whose
	// delivery to the base station exhausted the retry policy. Every
	// result is in exactly one of Results or ResultsLost — a dropped
	// result never silently vanishes (the fault-injection layer's
	// end-to-end delivery guarantee; feeds the faults.losses counter).
	ResultsLost int
	// DelaySum and DelayCount total, over every delivered result after
	// the first, the gap in sampling cycles since the previous delivered
	// result (the paper's Fig 14 "result delay": how long the base waits
	// between events). Two counters, not a per-result list, so a query
	// that runs forever holds a bounded result.
	DelaySum, DelayCount int
	// Migrations counts committed adaptive join-node moves: section 6
	// re-optimization run through Adaptive.AdaptEpoch, by a single-query
	// Innet learn Run or by an engine with adaptivity enabled.
	Migrations int
	// MigrationsAborted counts adaptive moves abandoned at the commit
	// point because the target node had died or the window-transfer path
	// was partitioned; the pair fell back to the base station instead.
	MigrationsAborted int
	// AtBasePairs / InNetPairs report where pairs ended up.
	AtBasePairs, InNetPairs int
	// PairJoinNodes lists the final in-network join node of each pair
	// (In-Net algorithms only), in pair-discovery order. Used by the
	// failure experiments to pick a victim.
	PairJoinNodes []topology.NodeID
	// PairPaths lists, aligned with PairJoinNodes, each in-network pair's
	// final s..t path. The churn benches pick intermediate-node victims
	// from it.
	PairPaths []routing.Path
}

// MeanDelay returns the average inter-result delay in cycles.
func (r *Result) MeanDelay() float64 {
	if r.DelayCount == 0 {
		return float64(0)
	}
	return float64(r.DelaySum) / float64(r.DelayCount)
}

// Algorithm is one join strategy.
type Algorithm interface {
	Name() string
	Run(cfg *Config) *Result
}

// Stepper is an in-flight continuous execution of one query. Start has
// already run initiation; the caller drives sampling cycles one at a time,
// which lets an external scheduler (internal/engine) interleave many
// queries over one deployment epoch by epoch.
//
// Concurrency contract (audited for every stepper in this package, and
// what lets internal/engine step independent queries on parallel workers):
// Step confines writes to state the query owns — its Config.Net (metrics,
// loss stream, relay queues), its sampler, its window/join state, its pair
// and multicast bookkeeping, dense per-cycle scratch — and performs only
// reads of shared structures (routing.Substrate tables and cached root
// paths, topology adjacency, the deployment Liveness view). Anything that
// mutates shared state is confined to Start (e.g. dht.Ring route
// memoization, filled while admission is sequential) or to the
// FailureRecoverer hook, which the engine invokes only from its sequential
// churn phase. The Config.FailNode injection is the one exception: it
// mutates the network's liveness view from inside Step, so it is a
// single-query facility — schedulers stepping queries concurrently must
// use engine-level churn instead (internal/engine always leaves it
// disabled).
type Stepper interface {
	// Step executes one sampling cycle. cycle counts from 0 at the
	// query's admission and must increase by 1 per call.
	Step(cycle int)
	// Results reports join results delivered to the base station so far.
	Results() int
	// Finish ends the execution and returns the final result. Step must
	// not be called after Finish.
	Finish() *Result
}

// Continuous is an Algorithm whose execution can be driven by an external
// epoch scheduler. Every algorithm in this package implements it; Run is
// the single-query convenience built on top of Start.
type Continuous interface {
	Algorithm
	Start(cfg *Config) Stepper
}

// FailureRecoverer is implemented by steppers that can repair their
// routing state after the shared deployment loses nodes — section 7's
// recovery run at deployment scope by internal/engine. failed lists the
// nodes that failed this epoch; rp charges limited-exploration probes to
// the caller's network (the engine points it at the SHARED metrics
// stream, so repair exploration is paid once, not once per query).
// It returns how many paths were repaired in-network and how many pairs
// fell back to joining at the base station. Steppers that route only
// through the substrate's trees (which the engine rebuilds separately)
// need not implement it.
type FailureRecoverer interface {
	HandleNodeFailure(failed []topology.NodeID, rp *routing.Repairer) (repaired, fallbacks int)
}

// LinkFaultRecoverer is implemented by steppers that can recover from
// persistently-lossy or severed paths injected by the fault layer — cut
// links and partitions, which node liveness cannot see. The engine invokes
// it from its sequential recovery phase whenever the fault plan holds any
// cut; rp must be link-aware (routing.Repairer.SetLinkCheck with the
// plan's predicate) and charges exploration probes to the SHARED stream,
// while the stepper detects severed paths through its own network's
// PathCut. Returns how many paths were rerouted in-network and how many
// pairs fell back to joining at the base station.
type LinkFaultRecoverer interface {
	HandleLinkFaults(rp *routing.Repairer) (rerouted, fallbacks int)
}

// MemReporter is implemented by steppers that report the bytes of their
// per-query tables (the In-Net stepper computes it from its compact
// tables, the grouped baselines from their arena carves). The engine sums
// the reports into its per-layer mem.join.bytes gauge at each epoch
// barrier.
type MemReporter interface {
	MemBytes() int64
}

// Adaptive is implemented by steppers whose join-node placement can be
// re-optimized by an external scheduler — section 6's adaptivity run at
// deployment scope by internal/engine, and at the end of every cycle by a
// single-query learning Run. It is the only place placement adapts: Step
// feeds the selectivity estimators but never migrates. AdaptEpoch closes
// the given sampling cycle on every pair's estimator (idempotently, per
// the adapt.Estimator contract), applies the divergence trigger, and
// executes any resulting window migrations. The placement decision is the
// nomination point; live is consulted at the commit point, and a migration
// whose target node is no longer alive aborts into the section-7
// base-station fallback instead of installing window state on a dead node.
// It returns the number of committed migrations and of aborted ones. The
// engine invokes it only from its sequential adaptivity phase, never
// inside the parallel section.
type Adaptive interface {
	AdaptEpoch(cycle int, live *topology.Liveness) (migrated, aborted int)
}

// StateSized is implemented by steppers that can report how many tuples
// their join windows currently buffer, summed across every join state the
// query maintains. internal/engine samples it at the epoch barrier (never
// inside the parallel section) to feed the observability layer's
// join-state gauges and histograms; steppers without meaningful window
// state need not implement it.
type StateSized interface {
	JoinStateTuples() int
}

// LossReporter is implemented by steppers that detect result loss: results
// computed but dropped on the path to the base station after exhausting the
// retry policy. internal/engine samples it at the epoch barrier, alongside
// Results, to make every missing result observable (faults.losses). Every
// stepper built on this package's shared result recorder implements it.
type LossReporter interface {
	ResultsLost() int
}

// LivenessObserver is implemented by routers (grouped.HomeRouter
// implementations) that memoize routing state which must be recomputed
// around failed nodes — dht.Ring's per-destination parent vectors.
type LivenessObserver interface {
	ObserveFailures(live *topology.Liveness)
}

// runSteps drives a stepper through cfg.Cycles — the single-query path
// behind every Algorithm.Run.
func runSteps(cfg *Config, st Stepper) *Result {
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		st.Step(cycle)
	}
	return st.Finish()
}

// snapshotInit records initiation-phase costs into res.
func snapshotInit(cfg *Config, res *Result) {
	m := cfg.Net.Metrics()
	res.InitBytes = m.TotalBytes
	res.InitMessages = m.TotalMessages
	res.InitBaseBytes = m.BaseBytes
}

// finish copies final metrics into res.
func finish(cfg *Config, res *Result) *Result {
	m := cfg.Net.Metrics()
	res.TotalBytes = m.TotalBytes
	res.TotalMessages = m.TotalMessages
	res.BaseBytes = m.BaseBytes
	res.BaseMessages = m.BaseMessages
	res.MaxNodeBytes = m.MaxNodeBytes()
	res.Drops = m.Drops
	return res
}

// recorder tracks result arrivals at the base and the inter-result delay.
type recorder struct {
	res       *Result
	lastCycle int
	any       bool
}

func newRecorder(res *Result) *recorder { return &recorder{res: res} }

// record notes n results delivered at the given cycle.
func (r *recorder) record(n, cycle int) {
	if n > 0 {
		// The first of the n results waits since the previous delivery;
		// the other n-1 arrive with it, each a gap of zero.
		if r.any {
			r.res.DelaySum += cycle - r.lastCycle
			r.res.DelayCount++
		}
		r.res.DelayCount += n - 1
		r.any = true
		r.lastCycle = cycle
	}
	r.res.Results += n
}

// drop notes n results lost in flight to the base: computed, transmitted,
// abandoned after exhausting the retry policy. Delays are not recorded —
// nothing arrived — but the loss is, so Results+ResultsLost always equals
// the results computed.
func (r *recorder) drop(n int) {
	r.res.ResultsLost += n
}

// sendResults forwards matches from join node j to the base station,
// opportunistically merged into one physical packet per (join node, cycle)
// — the Appendix E merging technique. Matches computed at the base itself
// are recorded without traffic.
func sendResults(cfg *Config, rec *recorder, j topology.NodeID, matches int, cycle int) {
	if matches == 0 {
		return
	}
	if j == topology.Base {
		rec.record(matches, cycle)
		return
	}
	path := cfg.Sub.PathToBase(j)
	ok, _ := cfg.Net.Transfer(path, matches*sim.ResultBytes, sim.Result, sim.Flow{Src: j, Dst: topology.Base})
	if ok {
		rec.record(matches, cycle)
	} else {
		rec.drop(matches)
	}
}

// maybeFail starts a sampling cycle: it resets the per-cycle relay queues
// and applies the configured failure injection at the right cycle. Every
// engine calls it at the top of its cycle loop.
func maybeFail(cfg *Config, cycle int) {
	cfg.Net.BeginCycle(cycle)
	if cfg.FailNode >= 0 && cycle == cfg.FailCycle {
		cfg.Net.Fail(cfg.FailNode)
	}
}

// eligibleProducers enumerates (node, role) producer slots in node order.
type producerSlot struct {
	id   topology.NodeID
	role query.Rel
}

func eligibleProducers(spec *workload.Spec, n int) []producerSlot {
	var out []producerSlot
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if spec.EligibleS(id) {
			out = append(out, producerSlot{id, query.S})
		}
		if spec.EligibleT(id) {
			out = append(out, producerSlot{id, query.T})
		}
	}
	return out
}

// bothRoles reports whether the node fills both producer roles (Query 3's
// symmetric join), in which case one physical reading serves both.
func bothRoles(spec *workload.Spec, id topology.NodeID) bool {
	return spec.EligibleS(id) && spec.EligibleT(id)
}
