package routing

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// FloodUpdate models the base station's directed multi-hop flooding used
// to assign static attributes to nodes (Appendix B: "each mote can be
// assigned a role, room number, or 3D location ... using directed
// multi-hop flooding"). The update travels down the base-rooted tree,
// pruned to subtrees containing addressed nodes; every traversed edge is
// charged. It returns the hop depth of the deepest addressed node (the
// propagation latency in transmission cycles).
func FloodUpdate(net *sim.Network, tree *Tree, payloadBytes int, addressed map[topology.NodeID]bool) (maxDepth int) {
	// Mark subtrees containing addressed nodes.
	wanted := map[topology.NodeID]bool{}
	var mark func(topology.NodeID) bool
	mark = func(n topology.NodeID) bool {
		hit := addressed[n]
		for _, c := range tree.Children[n] {
			if mark(c) {
				hit = true
			}
		}
		if hit {
			wanted[n] = true
		}
		return hit
	}
	mark(tree.Root)
	// Flood: forward into marked subtrees only.
	var walk func(topology.NodeID)
	walk = func(n topology.NodeID) {
		for _, c := range tree.Children[n] {
			if !wanted[c] {
				continue
			}
			if net != nil {
				net.Transfer(Path{n, c}, payloadBytes, sim.Control, sim.Flow{})
			}
			if addressed[c] && tree.Depth[c] > maxDepth {
				maxDepth = tree.Depth[c]
			}
			walk(c)
		}
	}
	if addressed[tree.Root] {
		maxDepth = 0
	}
	walk(tree.Root)
	return maxDepth
}

// UpdateAttribute applies a base-station attribute update: the new values
// are flooded to the addressed nodes (FloodUpdate on tree 0), the indexed
// summaries are rebuilt, and each affected node refreshes its ancestor
// chain's routing tables in every tree (charged per hop, as in the
// Appendix G mobility measurement). It returns the total propagation
// delay in transmission cycles (flood depth plus the longest refresh
// chain).
//
// The attribute must be one of the substrate's indexed attributes; the
// update panics otherwise — assigning an unindexed attribute is a plain
// flood with no routing-table consequences, which callers can do with
// FloodUpdate directly.
func (s *Substrate) UpdateAttribute(net *sim.Network, attr string, assign map[topology.NodeID]int32) int {
	idx := -1
	for i := range s.specs {
		if s.specs[i].Attr == attr {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("routing: UpdateAttribute on unindexed attribute " + attr)
	}
	addressed := map[topology.NodeID]bool{}
	ids := make([]topology.NodeID, 0, len(assign))
	//aspen:orderinvariant set-build plus keys collected then sorted before use
	for id := range assign {
		addressed[id] = true
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	// One (id, value) pair per addressed node rides the flood.
	payload := 2 * sim.ValueBytes * len(assign)
	delay := FloodUpdate(net, s.Trees[0], payload, addressed)
	// Apply the new values.
	for _, id := range ids {
		s.vals[idx][id] = assign[id]
	}
	// Refresh summaries: rebuild tables (they are derived state), then
	// charge the ancestor-chain updates each affected node ships in each
	// tree.
	s.buildTables(nil)
	maxChain := 0
	for _, tree := range s.Trees {
		for _, id := range ids {
			up := tree.PathToRoot(id)
			size := s.Entry(0, id).ScalarSizeBytes()
			for i := 0; i+1 < len(up); i++ {
				if net != nil {
					net.Transfer(Path{up[i], up[i+1]}, size, sim.Control, sim.Flow{})
				}
			}
			if up.Hops() > maxChain {
				maxChain = up.Hops()
			}
		}
	}
	return delay + maxChain
}
