package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/workload"
)

// perQueryHeap admits 64 copies of one 4-pair Query0 on an n-node Dense
// Random deployment, steps them 5 epochs and returns the live heap they
// added, per query. A warm-up query admitted first pays the shared index
// build, so the figure holds only what each query owns.
func perQueryHeap(t *testing.T, n int) float64 {
	t.Helper()
	const queries = 64
	e := New(Options{Kind: topology.DenseRandom, Nodes: n, Seed: 3})
	rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
	spec := workload.Query0(e.Topo, e.Nodes, 4, rates, 11)
	if _, err := e.Submit(QueryConfig{ID: "warm-up", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		if _, err := e.Submit(QueryConfig{ID: fmt.Sprintf("q%d", i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		e.Step()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / queries
}

// TestPerQueryHeapScalesWithQuery: a query's memory follows what it
// touches — its pairs, paths and join sites — not the deployment. The same
// 4-pair query on a 10x larger deployment may hold only the one array
// that stays deployment-sized (its network's 8 B/node NodeBytes) on top
// of at most twice its 1k-node footprint.
func TestPerQueryHeapScalesWithQuery(t *testing.T) {
	small := perQueryHeap(t, 1000)
	large := perQueryHeap(t, 10000)
	t.Logf("per-query heap: %.0f B at 1k nodes, %.0f B at 10k nodes", small, large)
	if large-8*10000 > 2*small {
		t.Fatalf("per-query heap grows with the deployment: %.0f B at 10k nodes (less 80000 B of NodeBytes) vs %.0f B at 1k", large, small)
	}
}

// TestQueryBytesGaugeSurvivesRetirement: retiring a query drops its
// network, so the sim.* gauges read retired queries from the engine's
// retired-traffic total. After every epoch, with queries retiring at
// different barriers, the gauges must still agree with the Report.
func TestQueryBytesGaugeSurvivesRetirement(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Seed: 5, Obs: reg})
	for i, cycles := range []int{3, 6, 9, 0} {
		if _, err := e.Submit(QueryConfig{ID: fmt.Sprintf("q%d", i), SQL: q1SQL(t), Cycles: cycles, AdmitAt: i}); err != nil {
			t.Fatal(err)
		}
	}
	retired := 0
	for epoch := 0; epoch < 12; epoch++ {
		e.Step()
		rep := e.Report()
		snap := reg.Snapshot()
		if got, _ := snap.Value("sim.query.bytes"); got != rep.QueryBytes {
			t.Fatalf("epoch %d: sim.query.bytes = %d, Report.QueryBytes = %d", epoch, got, rep.QueryBytes)
		}
		var byKind int64
		for _, k := range []string{"control", "data", "result"} {
			v, _ := snap.Value("sim.bytes." + k)
			byKind += v
		}
		if byKind != rep.AggregateBytes {
			t.Fatalf("epoch %d: sim.bytes.* sum to %d, Report.AggregateBytes = %d", epoch, byKind, rep.AggregateBytes)
		}
		retired = 0
		for _, q := range e.Queries() {
			if q.State() == Retired {
				retired++
				if q.net != nil || q.stepper != nil {
					t.Fatalf("epoch %d: retired query %s still holds its network or stepper", epoch, q.ID)
				}
			}
		}
	}
	if retired != 3 {
		t.Fatalf("%d queries retired, want 3", retired)
	}
}
