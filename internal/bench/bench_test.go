package bench

import (
	"path/filepath"
	"testing"
)

// TestScenarioRegistry pins the registry: names are unique, non-empty and
// stable-ordered, so BENCH_engine.json comparisons across PRs line up.
func TestScenarioRegistry(t *testing.T) {
	ss := Scenarios()
	if len(ss) < 6 {
		t.Fatalf("expected at least 6 scenarios, got %d", len(ss))
	}
	seen := map[string]bool{}
	for _, s := range ss {
		if s.Name == "" || s.Desc == "" || (s.Run == nil && s.RunHeap == nil) {
			t.Fatalf("scenario %+v incomplete", s.Name)
		}
		if s.Run != nil && s.RunHeap != nil {
			t.Fatalf("scenario %q declares both Run and RunHeap", s.Name)
		}
		if s.HeapCeiling > 0 && s.RunHeap == nil {
			t.Fatalf("scenario %q commits a heap ceiling without measuring heap", s.Name)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"engine-1", "engine-4", "engine-16", "engine-16-w4", "engine-64", "engine-256", "engine-1k", "engine-1k-w4", "engine-100k", "engine-10k-64q", "churn-10k", "topo-2k", "churn-1k", "repair", "sweep", "innet-vs-base", "adaptivity", "transfer"} {
		if !seen[want] {
			t.Errorf("scenario %q missing from registry", want)
		}
	}
}

// TestWorkersOverride: -workers retunes the unpinned engine scenarios
// without renaming them, and never touches the pinned -wN twins.
func TestWorkersOverride(t *testing.T) {
	byName := map[string]Scenario{}
	for _, s := range scenariosAt(8) {
		byName[s.Name] = s
	}
	if got := byName["engine-16"].Workers; got != 8 {
		t.Fatalf("engine-16 workers = %d under override 8", got)
	}
	if got := byName["engine-16-w4"].Workers; got != 4 {
		t.Fatalf("pinned engine-16-w4 workers = %d, want 4", got)
	}
	if _, renamed := byName["engine-16-w8"]; renamed {
		t.Fatal("override renamed a scenario")
	}
}

// TestParallelTwinChecksums: the -w4 scenarios must produce the same
// simulated traffic and checksum as their sequential twins — the
// worker-invariance guarantee at the trajectory-file level.
func TestParallelTwinChecksums(t *testing.T) {
	byName := map[string]Scenario{}
	for _, s := range Scenarios() {
		byName[s.Name] = s
	}
	seqTraffic, seqCheck := byName["engine-16"].Run()
	parTraffic, parCheck := byName["engine-16-w4"].Run()
	if seqTraffic != parTraffic || seqCheck != parCheck {
		t.Fatalf("engine-16 twins disagree: (%d,%f) vs (%d,%f)", seqTraffic, seqCheck, parTraffic, parCheck)
	}
}

// TestCompareMismatchWarnings: differing num_cpu or worker counts are
// surfaced as warnings, never as determinism drift.
func TestCompareMismatchWarnings(t *testing.T) {
	old := &Report{SchemaVersion: SchemaVersion, NumCPU: 1, Results: []Result{
		{Name: "engine-16", Workers: 0, NsPerOp: 100, Checksum: 7}, // pre-field report: Workers 0 reads as 1
	}}
	new := &Report{SchemaVersion: SchemaVersion, NumCPU: 8, Results: []Result{
		{Name: "engine-16", Workers: 4, NsPerOp: 25, Checksum: 7},
	}}
	if msg := EnvMismatch(old, new); msg == "" {
		t.Fatal("cpu mismatch not reported")
	}
	if msg := EnvMismatch(old, old); msg != "" {
		t.Fatalf("spurious env mismatch: %s", msg)
	}
	deltas, err := Compare(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || !deltas[0].WorkersMismatch {
		t.Fatalf("workers mismatch not flagged: %+v", deltas)
	}
	if deltas[0].ChecksumDrift {
		t.Fatal("equal checksums reported as drift across a worker mismatch")
	}
}

// TestRepairScenarioDeterminism runs the new section-7 scenario twice: the
// churn-recovery path must be as reproducible as everything else in the
// trajectory file (the churn-1k equivalent is covered by the committed
// checksum via the CI drift gate; it is too heavy for a unit test).
func TestRepairScenarioDeterminism(t *testing.T) {
	var s Scenario
	for _, sc := range Scenarios() {
		if sc.Name == "repair" {
			s = sc
		}
	}
	t1, c1 := s.Run()
	t2, c2 := s.Run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("repair scenario not deterministic: (%d,%f) vs (%d,%f)", t1, c1, t2, c2)
	}
	if t1 <= 0 || c1 < 1e3 {
		t.Fatalf("repair scenario repaired nothing: traffic=%d check=%f", t1, c1)
	}
}

// TestTransferScenarioDeterminism runs the cheapest scenario twice and
// checks traffic and checksum are identical — the property the whole
// trajectory file depends on.
func TestTransferScenarioDeterminism(t *testing.T) {
	var s Scenario
	for _, sc := range Scenarios() {
		if sc.Name == "transfer" {
			s = sc
		}
	}
	t1, c1 := s.Run()
	t2, c2 := s.Run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("transfer scenario not deterministic: (%d,%f) vs (%d,%f)", t1, c1, t2, c2)
	}
	if t1 <= 0 || c1 <= 0 {
		t.Fatalf("transfer scenario produced no traffic/deliveries: %d, %f", t1, c1)
	}
}

// TestReportRoundTripAndCompare measures one scenario in quick mode,
// writes the JSON report, reads it back and compares it to itself.
func TestReportRoundTripAndCompare(t *testing.T) {
	rep, err := Run([]string{"transfer"}, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || len(rep.Results) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	r := rep.Results[0]
	if r.Iterations < 1 || r.NsPerOp <= 0 || r.TrafficBytesPerOp <= 0 {
		t.Fatalf("implausible measurement: %+v", r)
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := Compare(back, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].ChecksumDrift {
		t.Fatalf("self-comparison should be drift-free: %+v", deltas)
	}
	if deltas[0].NsRatio != 1 {
		t.Fatalf("self-comparison ns ratio should be 1, got %f", deltas[0].NsRatio)
	}
}

// TestRunUnknownScenario checks the error path.
func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run([]string{"nope"}, QuickOptions()); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

// TestCompareSchemaMismatch checks cross-version comparisons are refused.
func TestCompareSchemaMismatch(t *testing.T) {
	a := &Report{SchemaVersion: SchemaVersion}
	b := &Report{SchemaVersion: SchemaVersion + 1}
	if _, err := Compare(a, b); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}
