package join

import (
	"slices"
	"sort"
	"unsafe"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mpo"
	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/window"
)

// nominationBytes is the (sourceID, targetID, sequence) triple of the
// section 3.2 nomination protocol.
const nominationBytes = 3 * sim.ValueBytes

// InnetOptions selects the In-Net variant. The paper's names compose as
// Innet-c m p g: cached multicast trees (cm), path collapsing (p), group
// optimization (g); learning is orthogonal (section 6).
type InnetOptions struct {
	// Multicast enables producer-rooted multicast trees with cached
	// interior state (section 5.1).
	Multicast bool
	// PathCollapse enables the snooping path-collapse optimization
	// (Algorithms 2-3); requires Multicast.
	PathCollapse bool
	// GroupOpt enables GROUPOPT (Algorithm 1) group-level decisions.
	GroupOpt bool
	// Learn makes a single-query Run re-optimize placement at the end of
	// every cycle through AdaptEpoch (section 6). Inside internal/engine
	// it only names the variant: an "Innet learn" query migrates there
	// only when the engine's Adapt option is on.
	Learn bool
	// Trigger overrides the 33% divergence trigger when positive.
	Trigger float64
	// EstimateInterval / ResetInterval override the adaptivity periods
	// when positive.
	EstimateInterval, ResetInterval int
	// PlacementOverride, when non-nil, replaces the cost-model placement
	// (used by the ablation benches: midpoint, endpoint, ...).
	PlacementOverride func(p costmodel.Params, depths []int) costmodel.Placement
}

// Innet is the pairwise in-network join with cost-based join-node
// placement (section 3) and the section 5/6 extensions.
type Innet struct {
	Opts InnetOptions
}

// Name implements Algorithm, matching the paper's variant naming.
func (in Innet) Name() string {
	name := "Innet"
	suffix := ""
	if in.Opts.Multicast {
		suffix += "cm"
	}
	if in.Opts.PathCollapse {
		suffix += "p"
	}
	if in.Opts.GroupOpt {
		suffix += "g"
	}
	if suffix != "" {
		name += "-" + suffix
	}
	if in.Opts.Learn {
		name += " learn"
	}
	return name
}

// pairState tracks one (s,t) pair's placement and learning state.
type pairState struct {
	s, t topology.NodeID
	// sp / tp are the pair's S and T producer slots.
	sp, tp *producerState
	// path runs s..t; jIdx indexes the join node on it, or -1 when the
	// pair joins at the base station.
	path routing.Path
	jIdx int
	// est learns the pair's selectivities from Step's observations; it is
	// inert unless AdaptEpoch closes cycles on it.
	est adapt.Estimator
	// group indexes the engine's group table (-1 when ungrouped).
	group int
	dead  bool // endpoint failed; pair abandoned
	// recoverAt is the cycle at which failure recovery completes (the
	// producers spend a few cycles detecting the silent join node and
	// attempting repair before switching to the base); 0 = healthy.
	recoverAt int
}

func (p *pairState) joinNode() topology.NodeID {
	if p.jIdx < 0 {
		return topology.Base
	}
	return p.path[p.jIdx]
}

// adoptRepair installs a repaired s..t path when it still passes through
// p's join node, re-locating the join node on it, and reports whether it
// did. A failed repair, or a detour that spliced the join node out, leaves
// p untouched.
func (p *pairState) adoptRepair(repaired routing.Path, ok bool) bool {
	if !ok {
		return false
	}
	j := p.joinNode()
	for i, n := range repaired {
		if n == j {
			p.path = repaired
			p.jIdx = i
			return true
		}
	}
	return false
}

// sSegment returns the s -> join node path (nil for base joins).
func (p *pairState) sSegment() routing.Path {
	if p.jIdx < 0 {
		return nil
	}
	return p.path[:p.jIdx+1]
}

// tSegment returns the t -> join node path (nil for base joins).
func (p *pairState) tSegment() routing.Path {
	if p.jIdx < 0 {
		return nil
	}
	return routing.Path(p.path[p.jIdx:]).Reverse()
}

// producerKey identifies a producer slot.
type producerKey struct {
	id   topology.NodeID
	role query.Rel
}

// producerState tracks one producer slot's pairs, multicast tree and
// retained recent tuples (for failover window reconstruction).
type producerState struct {
	key    producerKey
	pairs  []*pairState
	tree   *mpo.MulticastTree
	route  treeRoute
	recent []window.Tuple
	// replay / rebuild mark the producer for a window replay to the base
	// and a multicast-tree rebuild; set and cleared within one
	// recoverPairs sweep.
	replay, rebuild bool
}

// treeRoute is a producer's multicast tree in tree-local numbering, built
// on the tree's first dissemination (a tree the adaptivity or recovery
// passes replace before any tuple crosses it never pays for one): nodes
// lists the tree's nodes in ascending ID order (so local order is node
// order), edges are the tree's EdgeList as local (parent, child) indices,
// and reached / isJoin are one dissemination's marks, sized to the tree
// rather than the deployment and all false between disseminations.
type treeRoute struct {
	nodes           []topology.NodeID
	edges           [][2]int32
	root            int32
	reached, isJoin []bool
}

// newTreeRoute numbers tree's nodes and edges locally.
func newTreeRoute(tree *mpo.MulticastTree) treeRoute {
	el := tree.EdgeList()
	// Every tree node but the root is the child of exactly one edge.
	nodes := make([]topology.NodeID, 0, len(el)+1)
	nodes = append(nodes, tree.Root)
	for _, ed := range el {
		nodes = append(nodes, ed[1])
	}
	slices.Sort(nodes)
	local := func(id topology.NodeID) int32 {
		k, _ := slices.BinarySearch(nodes, id)
		return int32(k)
	}
	edges := make([][2]int32, len(el))
	for k, ed := range el {
		edges[k] = [2]int32{local(ed[0]), local(ed[1])}
	}
	marks := make([]bool, 2*len(nodes))
	return treeRoute{
		nodes:   nodes,
		edges:   edges,
		root:    local(tree.Root),
		reached: marks[:len(nodes):len(nodes)],
		isJoin:  marks[len(nodes):],
	}
}

// bytes is the route's footprint for MemBytes.
func (r *treeRoute) bytes() int64 {
	return int64(len(r.nodes))*(4+2) + int64(len(r.edges))*8
}

// joinSite is the query's join state at one join node: the window state
// and the matches it produced this cycle (merged into one result packet).
type joinSite struct {
	node    topology.NodeID
	state   *window.State
	matches int
}

// engine is the mutable run state of one In-Net execution. Every table is
// sized to what the query touches — its pairs, its producer slots, its
// join sites and its multicast trees — never to the deployment, so a
// small query on a large network stays small.
type engine struct {
	cfg   *Config
	opts  InnetOptions
	res   *Result
	rec   *recorder
	pairs []*pairState
	// prods lists the producer slots in (id, role) order, the
	// deterministic iteration order of every per-producer pass.
	prods []*producerState
	// sites holds the join state of each join node (created on demand).
	sites  map[topology.NodeID]*joinSite
	groups [][]*pairState

	// Per-cycle scratch, reused so steady-state Step calls do not
	// allocate. Every buffer is reset before use, so no state leaks
	// between cycles.
	matchOrder []*joinSite        // sites with matches, first-touch order
	matchBuf   []window.Match     // reusable Arrive result buffer
	served     []topology.NodeID  // unicast: join nodes already served
	joins      []int32            // multicast: marked join nodes, tree-local
	hop        [2]topology.NodeID // multicast: the edge being transmitted
}

// Run implements Algorithm. With Learn, every cycle ends with the same
// AdaptEpoch pass an adaptive engine runs; a single query has no shared
// liveness view, so it passes nil.
func (in Innet) Run(cfg *Config) *Result {
	e := in.Start(cfg).(*engine)
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		e.Step(cycle)
		if in.Opts.Learn {
			e.AdaptEpoch(cycle, nil)
		}
	}
	return e.Finish()
}

// Start implements Continuous: it runs initiation (exploration, placement,
// group optimization, multicast trees, path collapsing) and returns the
// cycle-steppable execution.
func (in Innet) Start(cfg *Config) Stepper {
	e := &engine{
		cfg:   cfg,
		opts:  in.Opts,
		res:   &Result{Algorithm: in.Name()},
		sites: map[topology.NodeID]*joinSite{},
	}
	e.rec = newRecorder(e.res)
	e.initiate()
	snapshotInit(cfg, e.res)
	return e
}

// Step implements Stepper.
//
//aspen:allocfree
func (e *engine) Step(cycle int) {
	maybeFail(e.cfg, cycle)
	e.runCycle(cycle)
}

// Results implements Stepper.
func (e *engine) Results() int { return e.res.Results }

// ResultsLost reports results dropped in flight to the base station.
func (e *engine) ResultsLost() int { return e.res.ResultsLost }

// MemBytes implements MemReporter: the bytes of the query's pair,
// producer and join-site tables and of its multicast routes (window
// contents are reported as tuples by JoinStateTuples).
func (e *engine) MemBytes() int64 {
	b := int64(len(e.pairs)) * int64(unsafe.Sizeof(pairState{})+8)
	b += int64(len(e.sites)) * int64(unsafe.Sizeof(joinSite{})+8)
	for _, ps := range e.prods {
		b += int64(unsafe.Sizeof(producerState{})+8) + int64(len(ps.pairs))*8 + ps.route.bytes()
	}
	return b
}

// JoinStateTuples implements StateSized: the tuples buffered across every
// join node's window state.
func (e *engine) JoinStateTuples() int {
	n := 0
	//aspen:orderinvariant commutative integer sum over join sites
	for _, site := range e.sites {
		n += site.state.Tuples()
	}
	return n
}

// Finish implements Stepper.
func (e *engine) Finish() *Result {
	for _, p := range e.pairs {
		if p.dead {
			continue
		}
		if p.jIdx < 0 {
			e.res.AtBasePairs++
		} else {
			e.res.InNetPairs++
			e.res.PairJoinNodes = append(e.res.PairJoinNodes, p.joinNode())
			e.res.PairPaths = append(e.res.PairPaths, p.path.Clone())
		}
	}
	return finish(e.cfg, e.res)
}

// --- Initiation (section 3) -------------------------------------------------

func (e *engine) initiate() {
	cfg := e.cfg
	// Exploration: every eligible s searches the substrate for matching
	// targets; traffic charged inside FindTargets.
	for i := 0; i < cfg.Topo.N(); i++ {
		s := topology.NodeID(i)
		if !cfg.Spec.EligibleS(s) {
			continue
		}
		found := cfg.Sub.FindTargets(s, cfg.Spec.SearchMatcher(s, cfg.Sub), cfg.Net)
		targets := make([]topology.NodeID, 0, len(found))
		//aspen:orderinvariant keys collected then sorted before use
		for t := range found {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })
		for _, t := range targets {
			// Compress the discovered path: the response path vector is
			// shortcut through known one-hop neighbourhoods ([11]).
			path := routing.Shortcut(cfg.Topo, found[t])
			p := &pairState{s: s, t: t, path: path, group: -1}
			e.placePair(p, cfg.Opt, true)
			e.pairs = append(e.pairs, p)
			p.est = *adapt.New(e.placementParams(cfg.Opt))
			if e.opts.Trigger > 0 {
				p.est.Trigger = e.opts.Trigger
			}
			if e.opts.EstimateInterval > 0 {
				p.est.Interval = e.opts.EstimateInterval
			}
			if e.opts.ResetInterval > 0 {
				p.est.Reset = e.opts.ResetInterval
			}
		}
	}
	// Producer bookkeeping.
	slots := map[producerKey]*producerState{}
	slot := func(key producerKey, p *pairState) *producerState {
		ps := slots[key]
		if ps == nil {
			ps = &producerState{key: key}
			slots[key] = ps
			e.prods = append(e.prods, ps)
		}
		ps.pairs = append(ps.pairs, p)
		return ps
	}
	for _, p := range e.pairs {
		p.sp = slot(producerKey{p.s, query.S}, p)
		p.tp = slot(producerKey{p.t, query.T}, p)
	}
	sort.Slice(e.prods, func(a, b int) bool {
		ka, kb := e.prods[a].key, e.prods[b].key
		if ka.id != kb.id {
			return ka.id < kb.id
		}
		return ka.role < kb.role
	})
	if e.opts.GroupOpt {
		e.buildGroups()
		e.runGroupOpt(e.cfg.Opt, true)
	}
	for _, p := range e.pairs {
		e.registerPair(p)
	}
	if e.opts.Multicast {
		e.rebuildTrees(true)
	}
	if e.opts.PathCollapse {
		e.collapsePaths()
	}
}

// placementParams returns the per-pair parameter view of opt.
func (e *engine) placementParams(opt costmodel.Params) costmodel.Params {
	opt.W = e.cfg.Spec.W
	return opt
}

// placePair runs the section 3.1 cost minimization for p (via the core
// decision procedure), charging the nomination protocol when charge is
// set.
func (e *engine) placePair(p *pairState, opt costmodel.Params, charge bool) {
	e.placePairQuiet(p, opt)
	if charge && e.cfg.Net != nil && p.jIdx >= 0 {
		// t nominates j; j notifies s (section 3.2).
		e.cfg.Net.Transfer(p.tSegment(), nominationBytes, sim.Control, sim.Flow{})
		e.cfg.Net.Transfer(routing.Path(p.path[:p.jIdx+1]).Reverse(), nominationBytes, sim.Control, sim.Flow{})
	}
}

// siteAt returns (creating on demand) the join site at node j.
func (e *engine) siteAt(j topology.NodeID) *joinSite {
	site := e.sites[j]
	if site == nil {
		site = &joinSite{node: j, state: window.NewState(e.cfg.Spec.W, e.cfg.Spec.DynJoin)}
		e.sites[j] = site
	}
	return site
}

// stateAt returns (creating on demand) the join state at node j.
func (e *engine) stateAt(j topology.NodeID) *window.State { return e.siteAt(j).state }

func (e *engine) registerPair(p *pairState) {
	e.stateAt(p.joinNode()).AddPair(p.s, p.t)
}

func (e *engine) unregisterPair(p *pairState) {
	j := p.joinNode()
	st := e.stateAt(j)
	st.RemovePair(p.s, p.t)
	if st.PairsFor(p.s, query.S) == 0 && st.PairsFor(p.s, query.T) == 0 {
		st.DropProducer(p.s)
	}
	if st.PairsFor(p.t, query.T) == 0 && st.PairsFor(p.t, query.S) == 0 {
		st.DropProducer(p.t)
	}
}

// --- Group optimization (section 5.2) ----------------------------------------

func (e *engine) buildGroups() {
	byKey := map[int64][]*pairState{}
	var keys []int64
	for _, p := range e.pairs {
		key, ok := e.cfg.Spec.GroupKeyS(p.s)
		if !ok {
			// Non-transitive predicate: each pair is its own group.
			key = int64(p.s)<<20 | int64(p.t)
		}
		if _, seen := byKey[key]; !seen {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], p)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for gi, key := range keys {
		group := byKey[key]
		for _, p := range group {
			p.group = gi
		}
		e.groups = append(e.groups, group)
	}
}

// runGroupOpt executes GROUPOPT for every group, moving whole groups to
// the base when the summed deltas favour it.
func (e *engine) runGroupOpt(opt costmodel.Params, charge bool) {
	for _, group := range e.groups {
		e.groupDecision(group, opt, charge)
	}
}

func (e *engine) groupDecision(group []*pairState, opt costmodel.Params, charge bool) {
	// Collect per-producer join-node facts over the group's in-network
	// assignments.
	type agg struct {
		key   producerKey
		nodes map[topology.NodeID]*costmodel.GroupJoinNode
		dists map[topology.NodeID]int
	}
	perProducer := map[producerKey]*agg{}
	var orderKeys []producerKey
	note := func(key producerKey, j topology.NodeID, dPJ int) {
		a, ok := perProducer[key]
		if !ok {
			a = &agg{key: key, nodes: map[topology.NodeID]*costmodel.GroupJoinNode{}, dists: map[topology.NodeID]int{}}
			perProducer[key] = a
			orderKeys = append(orderKeys, key)
		}
		n, ok := a.nodes[j]
		if !ok {
			n = &costmodel.GroupJoinNode{DPJ: dPJ, DJR: e.cfg.Sub.DepthToBase(j)}
			a.nodes[j] = n
		}
		n.NPJ++
	}
	for _, p := range group {
		if p.dead {
			continue
		}
		jIdx := p.jIdx
		if jIdx < 0 {
			// Evaluate the in-network alternative: pretend the pair sits
			// at its cost-model placement for delta purposes.
			depths := make([]int, len(p.path))
			for i, n := range p.path {
				depths[i] = e.cfg.Sub.DepthToBase(n)
			}
			pl := costmodel.BestPlacement(e.placementParams(opt), depths)
			if pl.AtBase {
				// In-network is never chosen for this pair; treat its
				// hypothetical join node as the path midpoint.
				jIdx = len(p.path) / 2
			} else {
				jIdx = pl.Index
			}
		}
		j := p.path[jIdx]
		note(producerKey{p.s, query.S}, j, jIdx)
		note(producerKey{p.t, query.T}, j, len(p.path)-1-jIdx)
	}
	sort.Slice(orderKeys, func(a, b int) bool {
		if orderKeys[a].id != orderKeys[b].id {
			return orderKeys[a].id < orderKeys[b].id
		}
		return orderKeys[a].role < orderKeys[b].role
	})
	var costs []mpo.ProducerCost
	for _, key := range orderKeys {
		a := perProducer[key]
		sigma := opt.SigmaS
		if key.role == query.T {
			sigma = opt.SigmaT
		}
		pc := mpo.ProducerCost{
			Producer: key.id,
			SigmaP:   sigma,
			DPR:      e.cfg.Sub.DepthToBase(key.id),
		}
		js := make([]topology.NodeID, 0, len(a.nodes))
		//aspen:orderinvariant keys collected then sorted before use
		for j := range a.nodes {
			js = append(js, j)
		}
		sort.Slice(js, func(x, y int) bool { return js[x] < js[y] })
		for _, j := range js {
			pc.JoinNodes = append(pc.JoinNodes, *a.nodes[j])
		}
		costs = append(costs, pc)
	}
	var net *sim.Network
	if charge {
		net = e.cfg.Net
	}
	decision := mpo.GroupOpt(e.cfg.Sub, net, costs, opt.SigmaST, e.cfg.Spec.W)
	for _, p := range group {
		if p.dead {
			continue
		}
		if decision == mpo.DecideBase {
			p.jIdx = -1
		} else if p.jIdx < 0 {
			e.placePair(p, opt, charge)
		}
	}
}

// --- Multicast and path collapsing (section 5.1, Appendix E) ----------------

// rebuildTrees reconstructs every producer's multicast tree from its
// current in-network segments, charging interior state pushes when charge
// is set.
func (e *engine) rebuildTrees(charge bool) {
	for _, ps := range e.prods {
		e.rebuildTree(ps, charge)
	}
}

func (e *engine) rebuildTree(ps *producerState, charge bool) {
	var paths []routing.Path
	for _, p := range ps.pairs {
		if p.dead || p.jIdx < 0 {
			continue
		}
		if ps.key.role == query.S {
			paths = append(paths, p.sSegment())
		} else {
			paths = append(paths, p.tSegment())
		}
	}
	if len(paths) == 0 {
		ps.tree, ps.route = nil, treeRoute{}
		return
	}
	ps.tree, ps.route = mpo.BuildMulticast(ps.key.id, paths), treeRoute{}
	if charge && e.cfg.Net != nil {
		if bytes := ps.tree.InteriorStateBytes(sim.PathEntryBytes); bytes > 0 {
			// The producer pushes cached subtree state one hop at a time
			// along the tree; modelled as one charge at the producer.
			e.cfg.Net.Broadcast(ps.key.id, bytes, sim.Control)
		}
	}
}

// collapsePaths runs the Appendix E path-collapse optimization for every
// producer with at least two node-disjoint in-network paths.
func (e *engine) collapsePaths() {
	for _, ps := range e.prods {
		key := ps.key
		var segs []routing.Path
		var segPairs []*pairState
		for _, p := range ps.pairs {
			if p.dead || p.jIdx < 0 {
				continue
			}
			if key.role == query.S {
				segs = append(segs, p.sSegment())
			} else {
				segs = append(segs, p.tSegment())
			}
			segPairs = append(segPairs, p)
		}
		if len(segs) < 2 {
			continue
		}
		opps := mpo.FindCollapses(e.cfg.Topo, segs)
		if len(opps) == 0 {
			continue
		}
		// Each discovered opportunity costs one notification from the
		// snooping node to the producer (Algorithm 2, line 8).
		for _, o := range opps {
			e.cfg.Net.Transfer(e.cfg.Sub.BestTreePath(o.N1, key.id), nominationBytes, sim.Control, sim.Flow{})
		}
		newSegs, _, applied := mpo.ApplyCollapses(e.cfg.Topo, key.id, segs, opps)
		if applied == 0 {
			continue
		}
		// Adopt the rerouted segments: splice each back into its pair's
		// full path (producer..j stays rerouted; j..other-end unchanged).
		for i, p := range segPairs {
			seg := newSegs[i]
			if key.role == query.S {
				rest := routing.Path(p.path[p.jIdx:])
				p.path = seg.Concat(rest)
				p.jIdx = len(seg) - 1
			} else {
				// seg is t..j reversed orientation: rebuild path as
				// s..j + reverse(seg)[1:].
				sPart := routing.Path(p.path[:p.jIdx+1])
				p.path = sPart.Concat(seg.Reverse())
				// jIdx unchanged: join node index still at len(sPart)-1.
				p.jIdx = len(sPart) - 1
			}
		}
		e.rebuildTree(ps, true)
	}
}

// --- Per-cycle execution ------------------------------------------------------

func (e *engine) runCycle(cycle int) {
	cfg := e.cfg
	// Per cycle, deliveries from a producer are deduplicated per join
	// node, and results are merged per join site (counts on the site,
	// first-touch order in e.matchOrder).
	e.matchOrder = e.matchOrder[:0]
	for _, ps := range e.prods {
		key := ps.key
		if !cfg.Net.Alive(key.id) {
			continue
		}
		v, send := cfg.Sampler.Sample(key.id, key.role, cycle)
		if !send {
			continue
		}
		t := window.Tuple{Producer: key.id, Value: v, Cycle: cycle}
		if len(ps.recent) >= cfg.Spec.W {
			// Slide the retained-tuple window in place instead of
			// re-slicing off the front, which would regrow the backing
			// array on every future append.
			copy(ps.recent, ps.recent[1:])
			ps.recent[len(ps.recent)-1] = t
		} else {
			ps.recent = append(ps.recent, t)
		}
		e.deliver(ps, v, cycle)
	}
	for _, site := range e.matchOrder {
		sendResults(cfg, e.rec, site.node, site.matches, cycle)
		site.matches = 0
	}
}

// noteMatches merges ms — the matches of producer ps's arrival at site —
// into the per-cycle result accounting and feeds the learning estimators.
// Every match names the arriving producer in its own role, so its pair is
// the one of ps's pairs whose other endpoint the match names.
func (e *engine) noteMatches(site *joinSite, ps *producerState, ms []window.Match) {
	if len(ms) > 0 {
		if site.matches == 0 {
			e.matchOrder = append(e.matchOrder, site)
		}
		site.matches += len(ms)
	}
	for i := range ms {
		for _, p := range ps.pairs {
			if p.s == ms[i].S && p.t == ms[i].T {
				p.est.ObserveResults(1)
				break
			}
		}
	}
}

// deliver sends producer ps's tuple to all its join nodes (multicast or
// pairwise) and to the base for its base-joined pairs.
func (e *engine) deliver(ps *producerState, v int32, cycle int) {
	cfg := e.cfg
	// Base-side pairs: one tree-routed send serves all of them.
	hasBase := false
	for _, p := range ps.pairs {
		if !p.dead && p.jIdx < 0 {
			hasBase = true
			break
		}
	}
	if hasBase {
		if ok, _ := cfg.Net.Transfer(cfg.Sub.PathToBase(ps.key.id), sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: topology.Base}); ok {
			e.arriveAt(topology.Base, ps, v, cycle)
		}
		// Base-station failure is outside the model (Appendix C assumes a
		// powered, reliable base).
	}
	if e.opts.Multicast && ps.tree != nil {
		e.deliverMulticast(ps, v, cycle)
		return
	}
	// Pairwise unicast with explicit path vectors, once per join node.
	e.served = e.served[:0]
	for _, p := range ps.pairs {
		if p.dead || p.jIdx < 0 {
			continue
		}
		j := p.joinNode()
		if slices.Contains(e.served, j) {
			continue
		}
		e.served = append(e.served, j)
		seg := p.sSegment()
		if ps.key.role == query.T {
			seg = p.tSegment()
		}
		// Data tuples carry no path vector: the nomination protocol left
		// soft flow state (src, dst, next-hop) at intermediate nodes
		// (Appendix E's data flow buffer), so steady-state payloads are
		// just the tuple.
		ok, _ := cfg.Net.Transfer(seg, sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: j, Path: seg})
		if ok {
			e.arriveAt(j, ps, v, cycle)
			continue
		}
		e.handleDeliveryFailure(ps, p, cycle)
	}
}

// deliverMulticast walks the producer's tree edge by edge; a failed edge
// prunes its subtree for this cycle. Cached interior state means the
// payload is just the tuple.
func (e *engine) deliverMulticast(ps *producerState, v int32, cycle int) {
	cfg := e.cfg
	if ps.route.nodes == nil {
		ps.route = newTreeRoute(ps.tree)
	}
	r := &ps.route
	r.reached[r.root] = true
	// Mark the live pairs' join nodes on the tree; a join node off the
	// tree is never reached, so it is skipped.
	e.joins = e.joins[:0]
	for _, p := range ps.pairs {
		if !p.dead && p.jIdx >= 0 {
			if k, on := slices.BinarySearch(r.nodes, p.joinNode()); on && !r.isJoin[k] {
				r.isJoin[k] = true
				e.joins = append(e.joins, int32(k))
			}
		}
	}
	anyFailure := false
	for _, edge := range r.edges {
		if !r.reached[edge[0]] {
			continue
		}
		child := r.nodes[edge[1]]
		e.hop[0], e.hop[1] = r.nodes[edge[0]], child
		ok, _ := cfg.Net.Transfer(e.hop[:], sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: child})
		if !ok {
			if !cfg.Net.Alive(child) {
				anyFailure = true
			}
			continue
		}
		r.reached[edge[1]] = true
	}
	// Local order is node order, so join nodes arrive in ascending ID.
	slices.Sort(e.joins)
	for _, k := range e.joins {
		r.isJoin[k] = false
		if r.reached[k] {
			e.arriveAt(r.nodes[k], ps, v, cycle)
		}
	}
	clear(r.reached)
	if anyFailure {
		for _, p := range ps.pairs {
			if !p.dead && p.jIdx >= 0 && !cfg.Net.Alive(p.joinNode()) {
				e.handleDeliveryFailure(ps, p, cycle)
			}
		}
	}
}

// arriveAt feeds the tuple into the join state at j for every of ps's
// pairs joined there, observing learning counters.
func (e *engine) arriveAt(j topology.NodeID, ps *producerState, v int32, cycle int) {
	site := e.siteAt(j)
	relevant := false
	for _, p := range ps.pairs {
		if p.dead || p.joinNode() != j {
			continue
		}
		relevant = true
		if ps.key.role == query.S {
			p.est.ObserveS()
		} else {
			p.est.ObserveT()
		}
	}
	if !relevant {
		return
	}
	e.matchBuf = site.state.ArriveAppend(e.matchBuf[:0], ps.key.id, ps.key.role, v, cycle)
	e.noteMatches(site, ps, e.matchBuf)
}

// --- Failure handling (section 7) --------------------------------------------

// failureRecoveryCycles is how many sampling cycles a producer spends
// detecting a silent join node (retransmission timeouts) and running the
// limited-exploration repair before giving up and switching to the base
// station. Section 7 observes the resulting result delay is about 6
// cycles.
const failureRecoveryCycles = 5

// fallbackToBase switches p to joining at the base station — section 7's
// last resort, shared by the per-cycle delivery-failure path and the
// engine-driven recovery pass. Window registrations move to the base's
// state; callers replay retained windows separately.
func (e *engine) fallbackToBase(p *pairState) {
	e.unregisterPair(p)
	p.jIdx = -1
	p.recoverAt = 0
	e.stateAt(topology.Base).AddPair(p.s, p.t)
}

// replayWindowToBase ships ps's retained tuples up the base tree so the
// base can reconstruct the join window of a pair that just fell back —
// data traffic, charged to the query's own stream.
func (e *engine) replayWindowToBase(ps *producerState) {
	if ps == nil || len(ps.recent) == 0 || !e.cfg.Net.Alive(ps.key.id) {
		return
	}
	path := e.cfg.Sub.PathToBase(ps.key.id)
	if ok, _ := e.cfg.Net.Transfer(path, len(ps.recent)*sim.TupleBytes, sim.Data, sim.Flow{Src: ps.key.id, Dst: topology.Base}); ok {
		e.stateAt(topology.Base).Restore(ps.recent)
	}
}

// handleDeliveryFailure reacts to a failed transfer toward a pair's join
// node: repair the path around an intermediate failure, or — when the join
// node itself is gone — switch the pair to the base station, replaying the
// producer's last w tuples so the base can reconstruct the join window.
func (e *engine) handleDeliveryFailure(ps *producerState, p *pairState, cycle int) {
	cfg := e.cfg
	if !cfg.Net.Alive(p.s) || !cfg.Net.Alive(p.t) {
		e.unregisterPair(p)
		p.dead = true
		return
	}
	j := p.joinNode()
	if cfg.Net.Alive(j) {
		// Intermediate node failed: limited-exploration repair of the
		// full pair path (section 7, via [11]).
		if p.adoptRepair(routing.RepairPath(cfg.Topo, cfg.Net, p.path, routing.DefaultRepairLimit)) {
			if e.opts.Multicast {
				e.rebuildTree(ps, true)
			}
			return
		}
		// Repair failed or lost the join node: fall through to base.
	}
	// The join node is gone. Detection and repair attempts take several
	// cycles before the producers switch strategies; tuples sent in the
	// interim are lost (the paper's ~6-cycle result-delay bump).
	if p.recoverAt == 0 {
		p.recoverAt = cycle + failureRecoveryCycles
		return
	}
	if cycle < p.recoverAt {
		return
	}
	// Join node unreachable: switch to joining at the base, forwarding the
	// last w tuples to rebuild the window.
	e.fallbackToBase(p)
	e.replayWindowToBase(ps)
	if e.opts.Multicast {
		e.rebuildTree(ps, true)
	}
}

// HandleNodeFailure implements FailureRecoverer: the engine-driven,
// epoch-boundary analogue of handleDeliveryFailure. Where the per-cycle
// path reacts to one producer's failed transfer, this pass sweeps every
// pair whose path crosses a freshly failed node at once: pairs with a dead
// endpoint are abandoned; pairs whose join node survives get the section 7
// limited-exploration repair (probes charged once to the SHARED stream via
// rp); pairs whose join node died — or whose gap is unbridgeable — switch
// to the base station immediately (the deployment-wide view needs no
// multi-cycle silent-node detection). See recoverPairs for the rest.
func (e *engine) HandleNodeFailure(failed []topology.NodeID, rp *routing.Repairer) (repaired, fallbacks int) {
	net := e.cfg.Net
	return e.recoverPairs(rp, func(p *pairState) (affected, repairable bool) {
		if !net.Alive(p.s) || !net.Alive(p.t) {
			e.unregisterPair(p)
			p.dead = true
			return false, false
		}
		// Base-joined pairs route over the substrate's base tree, which
		// the engine rebuilds separately.
		if p.jIdx < 0 || !p.path.ContainsAny(failed) {
			return false, false
		}
		return true, net.Alive(p.joinNode())
	})
}

// HandleLinkFaults implements LinkFaultRecoverer: the link-layer analogue
// of HandleNodeFailure, run by the engine whenever the fault plan has cut
// links or an active partition. Every node is alive, so liveness sees
// nothing — the sweep instead asks the query's own network (which consults
// the installed fault plan) whether each in-network pair's s..t path or its
// join node's result path to the base crosses a cut hop. A cut pair path
// gets the limited-exploration repair through the link-aware Repairer
// (probes charged once to the shared stream); a pair whose join node is
// severed from the base station — or whose gap no detour bridges, e.g.
// across a partition — falls back to joining at the base, exactly the
// section-7 response to a dead join node. Pairs already at the base route
// over the substrate tree and are left alone: their delivery failures
// surface as observable drops and losses, not silent stalls.
func (e *engine) HandleLinkFaults(rp *routing.Repairer) (rerouted, fallbacks int) {
	net := e.cfg.Net
	return e.recoverPairs(rp, func(p *pairState) (affected, repairable bool) {
		if p.jIdx < 0 {
			return false, false
		}
		pathCut := net.PathCut(p.path)
		baseCut := net.PathCut(e.cfg.Sub.PathToBase(p.joinNode()))
		return pathCut || baseCut, pathCut && !baseCut
	})
}

// recoverPairs is the section-7 repair-or-fall-back sweep behind
// HandleNodeFailure and HandleLinkFaults. check classifies each live pair
// (and may abandon it): an affected, repairable pair tries the
// limited-exploration repair through rp and keeps its join node when the
// detour still reaches it; every other affected pair falls back to joining
// at the base station. Afterwards, in the deterministic e.prods pass, each
// fallen-back pair's producers replay their retained windows to the base
// (charged to the query's own stream, like any data) and every touched
// producer's multicast tree is rebuilt.
func (e *engine) recoverPairs(rp *routing.Repairer, check func(p *pairState) (affected, repairable bool)) (repaired, fallbacks int) {
	for _, p := range e.pairs {
		if p.dead {
			continue
		}
		affected, repairable := check(p)
		if !affected {
			continue
		}
		if repairable && p.adoptRepair(rp.Repair(p.path)) {
			repaired++
		} else {
			e.fallbackToBase(p)
			fallbacks++
			p.sp.replay = true
			p.tp.replay = true
		}
		p.sp.rebuild = true
		p.tp.rebuild = true
	}
	for _, ps := range e.prods {
		if ps.replay {
			e.replayWindowToBase(ps)
		}
		if e.opts.Multicast && ps.rebuild {
			e.rebuildTree(ps, true)
		}
		ps.replay, ps.rebuild = false, false
	}
	return repaired, fallbacks
}

// --- Adaptive re-optimization (section 6) -------------------------------------

// AdaptEpoch implements Adaptive, the one section-6 re-optimization path:
// the engine's adaptivity phase and a single-query learning Run both call
// it after Step. It closes the given cycle on every live pair's estimator
// (a no-op for cycles already closed, per the adapt.Estimator idempotence
// contract) and re-optimizes on every trigger. Ungrouped pairs are
// re-placed individually; grouped pairs are re-decided once per group per
// call with the triggering pair's fresh estimates as the authority, so the
// individual and group optima never fight each other across cycles.
func (e *engine) AdaptEpoch(cycle int, live *topology.Liveness) (migrated, aborted int) {
	adaptedGroups := map[int]bool{}
	for _, p := range e.pairs {
		if p.dead {
			continue
		}
		fresh, triggered := p.est.EndCycle(cycle)
		if !triggered {
			continue
		}
		if e.opts.GroupOpt && p.group >= 0 {
			if !adaptedGroups[p.group] {
				adaptedGroups[p.group] = true
				m, a := e.adaptGroup(e.groups[p.group], fresh, live)
				migrated += m
				aborted += a
			}
			continue
		}
		oldIdx, oldNode := p.jIdx, p.joinNode()
		e.placePairQuiet(p, fresh)
		m, a := e.commitMove(p, oldIdx, oldNode, true, live)
		migrated += m
		aborted += a
	}
	return migrated, aborted
}

// adaptGroup re-optimizes one GROUPOPT group with fresh estimates: every
// in-network pair is individually re-placed (quietly — the nomination
// point), then the group-level base-versus-in-network decision runs with
// its usual coordination and nomination charging, and finally each move is
// committed.
func (e *engine) adaptGroup(group []*pairState, fresh costmodel.Params, live *topology.Liveness) (migrated, aborted int) {
	oldIdx := make([]int, len(group))
	oldNode := make([]topology.NodeID, len(group))
	for i, p := range group {
		oldIdx[i], oldNode[i] = p.jIdx, p.joinNode()
		if !p.dead && p.jIdx >= 0 {
			e.placePairQuiet(p, fresh)
		}
	}
	e.groupDecision(group, fresh, true)
	for i, p := range group {
		if p.dead {
			continue
		}
		// In-network repositioning came from the quiet individual pass;
		// base-to-in-network moves were already nominated by the group
		// decision's charged placement.
		m, a := e.commitMove(p, oldIdx[i], oldNode[i], oldIdx[i] >= 0, live)
		migrated += m
		aborted += a
	}
	return migrated, aborted
}

// commitMove is the commit point of a re-placement already written to
// p.jIdx, shared by the individual and the group path. An unchanged join
// node restores the old index. Otherwise live — the shared deployment view,
// nil for a single-query run — is consulted: a target that died between
// optimization and commit aborts into the section-7 base fallback, with no
// window state installed at (or left registered to) the dead node. A live
// target gets the migration nomination exchange (when nominate is set) and
// the pair's window. Returns (1,0) for a committed move, (0,1) for an
// abort, (0,0) when the placement did not change.
func (e *engine) commitMove(p *pairState, oldIdx int, oldNode topology.NodeID, nominate bool, live *topology.Liveness) (migrated, aborted int) {
	if p.jIdx == oldIdx || p.joinNode() == oldNode {
		p.jIdx = oldIdx
		return 0, 0
	}
	if p.jIdx >= 0 && live != nil && !live.Alive(p.joinNode()) {
		e.abortMigration(p, oldIdx)
		return 0, 1
	}
	if nominate && p.jIdx >= 0 {
		e.nominateMigration(p)
	}
	if !e.transferWindow(p, oldIdx, oldNode) {
		return 0, 1
	}
	return 1, 0
}

// abortMigration abandons a nominated move at its commit point. The old
// placement is restored first so the fallback unregisters the correct
// (live) node; a pair that was joining in-network then takes the shared
// section-7 path — base fallback, producers' retained windows replayed,
// multicast trees rebuilt. A pair already joining at the base stays there:
// nothing moved, and the base still holds the authoritative window.
func (e *engine) abortMigration(p *pairState, oldIdx int) {
	p.jIdx = oldIdx
	e.res.MigrationsAborted++
	if oldIdx < 0 {
		return
	}
	e.fallbackToBase(p)
	e.replayWindowToBase(p.sp)
	e.replayWindowToBase(p.tp)
	e.rebuildPairTrees(p)
}

// rebuildPairTrees rebuilds (charged) both of p's producers' multicast
// trees after p's join node moved; a no-op without multicast.
func (e *engine) rebuildPairTrees(p *pairState) {
	if e.opts.Multicast {
		e.rebuildTree(p.sp, true)
		e.rebuildTree(p.tp, true)
	}
}

// nominateMigration notifies the producers about an in-network join node
// chosen by a migration (the section 3.2 nomination exchange, charged to
// the migration traffic class).
func (e *engine) nominateMigration(p *pairState) {
	e.cfg.Net.Transfer(p.tSegment(), nominationBytes, sim.Migration, sim.Flow{})
	e.cfg.Net.Transfer(routing.Path(p.path[:p.jIdx+1]).Reverse(), nominationBytes, sim.Migration, sim.Flow{})
}

// transferWindow moves the pair's join window from oldNode to the
// placement already written to p.jIdx: snapshot at the old node, ship
// along the connecting path (charged as sim.Migration), restore at the new
// node. Producer windows are physically shared by every pair colocated at
// a node, so the restore skips producers the target already buffers — the
// live window there is current, and pushing the snapshot on top would
// duplicate tuples and hence join results. Registration moves through
// unregisterPair so a producer with no remaining pairs at the old node
// drops its window rather than leaving stale tuples behind.
// It returns whether the move committed: a transfer whose path is severed
// by a fault-injected partition aborts (abortMigration) and returns false.
func (e *engine) transferWindow(p *pairState, oldIdx int, oldNode topology.NodeID) bool {
	newNode := p.joinNode()
	tuples, bytes := e.stateAt(oldNode).Snapshot(p.s, p.t)
	var path routing.Path
	switch {
	case oldIdx < 0: // base -> in-network
		path = e.cfg.Sub.PathToBase(newNode).Reverse()
	case p.jIdx < 0: // in-network -> base
		path = e.cfg.Sub.PathToBase(oldNode)
	default: // along the pair path
		lo, hi := oldIdx, p.jIdx
		if lo > hi {
			path = routing.Path(p.path[hi : lo+1]).Reverse()
		} else {
			path = routing.Path(p.path[lo : hi+1])
		}
	}
	delivered := true
	if bytes > 0 {
		delivered, _ = e.cfg.Net.Transfer(path, bytes, sim.Migration, sim.Flow{})
		if !delivered && e.cfg.Net.PathCut(path) {
			// The charged transfer path is partitioned mid-epoch: the
			// snapshot cannot reach the target, and installing the pair
			// there would leave a half-transferred window. Abort the same
			// way as a dead target at the commit point.
			e.abortMigration(p, oldIdx)
			return false
		}
	}
	newIdx := p.jIdx
	p.jIdx = oldIdx
	e.unregisterPair(p)
	p.jIdx = newIdx
	newState := e.stateAt(newNode)
	skipS := newState.WindowLen(p.s) > 0
	skipT := newState.WindowLen(p.t) > 0
	newState.AddPair(p.s, p.t)
	if delivered {
		keep := tuples[:0]
		for _, tp := range tuples {
			if (tp.Producer == p.s && skipS) || (tp.Producer == p.t && skipT) {
				continue
			}
			keep = append(keep, tp)
		}
		newState.Restore(keep)
	}
	e.res.Migrations++
	e.rebuildPairTrees(p)
	return true
}

// placePairQuiet re-places without nomination charges (migration charges
// its own messages).
func (e *engine) placePairQuiet(p *pairState, opt costmodel.Params) {
	pl := core.PlacePair(e.placementParams(opt), p.path, e.cfg.Sub.DepthToBase, core.PlacePolicy(e.opts.PlacementOverride))
	if pl.AtBase {
		p.jIdx = -1
	} else {
		p.jIdx = pl.PathIndex
	}
}
