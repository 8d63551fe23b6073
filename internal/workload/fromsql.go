package workload

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/routing"
	"repro/internal/topology"
)

// SpecFromSQL builds an executable Spec from a StreamSQL query text: the
// full Appendix B pipeline — parse, CNF, classify, pattern-match — wired
// to the node attributes, with the primary routable predicate driving both
// the substrate index and the exploration matcher. This is the path a
// query posed at the base station takes; the hand-built constructors
// (Query1, Query2, ...) are its pre-compiled equivalents, and the tests
// assert they agree.
//
// Requirements: the query's dynamic join must be the single-attribute u
// equality or an abs-difference threshold (the forms Queries 0-3 use), and
// at least one primary routable predicate must exist — otherwise only the
// grouped algorithms could run it, and the caller should say so explicitly
// rather than silently flooding.
func SpecFromSQL(src string, topo *topology.Topology, nodes []NodeInfo, rates Rates) (*Spec, error) {
	schema := query.DefaultSchema()
	c, err := query.Compile(src, schema)
	if err != nil {
		return nil, err
	}
	if len(c.Primary) == 0 {
		return nil, fmt.Errorf("workload: query has no routable join predicate; only join-at-base strategies apply")
	}
	primary := c.Primary[0]

	// The compiled predicates are evaluated once per node or per candidate
	// pair on every exploration probe, so the bindings are two reusable
	// heap cells mutated in place rather than fresh values boxed into the
	// Binding interface on every call. Specs are driven by one goroutine
	// per run (the engine steps queries sequentially; sweep workers build
	// their own specs), which makes the reuse safe.
	pairCell := &PairBinding{}
	bindingFor := func(s, t topology.NodeID) query.Binding {
		pairCell.S, pairCell.T = &nodes[s], &nodes[t]
		return pairCell
	}
	selfCell := &PairBinding{}
	selfBinding := func(id topology.NodeID) query.Binding {
		selfCell.S, selfCell.T = &nodes[id], &nodes[id]
		return selfCell
	}
	dynCell := &dynBinding{}

	// The substrate indexes the primary target attribute; values come from
	// the node statics through the same binding the evaluator uses.
	target := func(id topology.NodeID) int32 {
		return PairBinding{S: &nodes[id], T: &nodes[id]}.Value(query.T, primary.TargetAttr)
	}

	spec := &Spec{
		Name:  "SQL",
		W:     c.WindowSize,
		Nodes: nodes,
		EligibleS: func(id topology.NodeID) bool {
			return id != topology.Base && c.Parts.SelS.Eval(selfBinding(id))
		},
		EligibleT: func(id topology.NodeID) bool {
			return id != topology.Base && c.Parts.SelT.Eval(selfBinding(id))
		},
		PairMatch: func(s, t topology.NodeID) bool {
			return c.Parts.JoinStatic.Eval(bindingFor(s, t))
		},
		DynJoin: func(sv, tv int32) bool {
			dynCell.sv, dynCell.tv = sv, tv
			return c.Parts.JoinDynamic.Eval(dynCell)
		},
		Indexes: []routing.IndexSpec{{
			Attr:  primary.TargetAttr,
			Kind:  routing.BloomSummary,
			Value: target,
		}},
		Rates: rates,
	}
	// Grouping: with a single primary equality the join groups are keyed
	// by the routing key; secondary clauses break transitivity, so
	// grouping is only exposed when none exist.
	if len(c.Secondary) == 0 && len(c.Parts.JoinStatic) == 1 {
		spec.GroupKeyS = func(id topology.NodeID) (int64, bool) {
			return int64(primary.SourceTerm.Eval(selfBinding(id))), true
		}
		spec.GroupKeyT = func(id topology.NodeID) (int64, bool) {
			return int64(target(id)), true
		}
	} else {
		spec.GroupKeyS = func(topology.NodeID) (int64, bool) { return 0, false }
		spec.GroupKeyT = func(topology.NodeID) (int64, bool) { return 0, false }
	}
	spec.SearchMatcher = func(s topology.NodeID, sub *routing.Substrate) routing.Matcher {
		key := primary.SourceTerm.Eval(selfBinding(s))
		col := sub.ColumnIndex(primary.TargetAttr)
		return &specMatcher{spec: spec, s: s, mayMatch: func(e routing.Entry) bool {
			return e.Scalar(col).MayContain(key)
		}}
	}
	return spec, nil
}

// dynBinding binds only the dynamic reading attributes (u, v) for
// evaluating dynamic join clauses at a join node.
type dynBinding struct {
	sv, tv int32
}

// Value implements query.Binding.
func (b dynBinding) Value(rel query.Rel, attr string) int32 {
	switch attr {
	case "u", "v":
		if rel == query.S {
			return b.sv
		}
		return b.tv
	default:
		panic("workload: dynamic join clause references non-reading attribute " + attr)
	}
}
