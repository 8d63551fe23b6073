package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/join"
	"repro/internal/routing"
	"repro/internal/topology"
)

// span is one timed call. Driver spans (engine.New, engine.Submit,
// engine.Step, engine.Drain) are roots; a wrapped algorithm call is a
// child of the driver span in progress when it ran. Times are offsets
// from the recorder's origin.
type span struct {
	Name   string        `json:"name"`
	Query  string        `json:"query,omitempty"`
	Epoch  int           `json:"epoch"`
	Parent int           `json:"parent"` // index into the root spans; -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a traced pass's spans in memory. Roots are written only
// by the driver goroutine. Each wrapped query appends its children to its
// own queryTrace: the engine steps a query on one goroutine at a time and
// separates epochs with a barrier, so every queryTrace has one writer.
type recorder struct {
	origin  time.Time
	roots   []span
	current int // the root whose call is in progress; children name it as parent
	queries []*queryTrace
	// allocs reads the runtime's cumulative heap allocation counter.
	allocs []metrics.Sample
}

// queryTrace holds one query's child spans and the outcome counts its
// wrapped calls returned.
type queryTrace struct {
	rec   *recorder
	id    string
	spans []span
	// startAllocBytes is the heap its Start allocated.
	startAllocBytes                              uint64
	repaired, fallbacks, rerouted, linkFallbacks int
	migrated, aborted                            int
}

func newRecorder() *recorder {
	return &recorder{
		origin:  time.Now(),
		current: -1,
		allocs:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// begin opens a root span and makes it the parent of the wrapped calls
// that follow; it returns the span's index for end. No-op on nil.
func (r *recorder) begin(name, query string, epoch int) int {
	if r == nil {
		return -1
	}
	r.roots = append(r.roots, span{Name: name, Query: query, Epoch: epoch, Parent: -1, Start: r.now()})
	r.current = len(r.roots) - 1
	return r.current
}

// end closes root span i. No-op on nil.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.roots[i].End = r.now()
}

func (r *recorder) heapAllocs() uint64 {
	metrics.Read(r.allocs)
	return r.allocs[0].Value.Uint64()
}

// wrap returns the traced default algorithm for one query.
func (r *recorder) wrap(id string) join.Continuous {
	q := &queryTrace{rec: r, id: id}
	r.queries = append(r.queries, q)
	return &tracedAlg{inner: defaultAlgorithm, q: q}
}

// defaultAlgorithm is the engine's default: In-Net with multicast and
// group optimization.
var defaultAlgorithm = join.Innet{Opts: join.InnetOptions{Multicast: true, GroupOpt: true}}

// innetStepper is every optional capability the In-Net stepper
// implements; the engine probes for each by type assertion, so the
// wrapper must forward all of them to leave behaviour unchanged.
type innetStepper interface {
	join.Stepper
	join.FailureRecoverer
	join.LinkFaultRecoverer
	join.Adaptive
	join.MemReporter
	join.StateSized
	join.LossReporter
}

// tracedAlg times the In-Net algorithm's admission (Start).
type tracedAlg struct {
	inner join.Innet
	q     *queryTrace
}

func (a *tracedAlg) Name() string                      { return a.inner.Name() }
func (a *tracedAlg) Run(cfg *join.Config) *join.Result { return a.inner.Run(cfg) }

func (a *tracedAlg) Start(cfg *join.Config) join.Stepper {
	r := a.q.rec
	parent, t0, m0 := r.current, r.now(), r.heapAllocs()
	st := a.inner.Start(cfg)
	a.q.startAllocBytes += r.heapAllocs() - m0
	a.q.add("join.start", parent, t0)
	inner, ok := st.(innetStepper)
	if !ok {
		panic(fmt.Sprintf("perfbench: %T no longer implements every capability the traced wrapper forwards", st))
	}
	return &tracedStepper{inner: inner, q: a.q}
}

func (q *queryTrace) add(name string, parent int, start time.Duration) {
	q.spans = append(q.spans, span{Name: name, Query: q.id, Epoch: q.rec.roots[parent].Epoch, Parent: parent, Start: start, End: q.rec.now()})
}

// tracedStepper times every stepper call that does work and forwards the
// read-only capabilities untimed.
type tracedStepper struct {
	inner innetStepper
	q     *queryTrace
}

func (s *tracedStepper) Step(cycle int) {
	parent, t0 := s.q.rec.current, s.q.rec.now()
	s.inner.Step(cycle)
	s.q.add("join.step", parent, t0)
}

func (s *tracedStepper) Finish() *join.Result {
	parent, t0 := s.q.rec.current, s.q.rec.now()
	res := s.inner.Finish()
	s.q.add("join.finish", parent, t0)
	return res
}

func (s *tracedStepper) HandleNodeFailure(failed []topology.NodeID, rp *routing.Repairer) (int, int) {
	parent, t0 := s.q.rec.current, s.q.rec.now()
	r, f := s.inner.HandleNodeFailure(failed, rp)
	s.q.add("join.recover", parent, t0)
	s.q.repaired += r
	s.q.fallbacks += f
	return r, f
}

func (s *tracedStepper) HandleLinkFaults(rp *routing.Repairer) (int, int) {
	parent, t0 := s.q.rec.current, s.q.rec.now()
	r, f := s.inner.HandleLinkFaults(rp)
	s.q.add("join.link_recover", parent, t0)
	s.q.rerouted += r
	s.q.linkFallbacks += f
	return r, f
}

func (s *tracedStepper) AdaptEpoch(cycle int, live *topology.Liveness) (int, int) {
	parent, t0 := s.q.rec.current, s.q.rec.now()
	m, a := s.inner.AdaptEpoch(cycle, live)
	s.q.add("join.adapt", parent, t0)
	s.q.migrated += m
	s.q.aborted += a
	return m, a
}

func (s *tracedStepper) Results() int         { return s.inner.Results() }
func (s *tracedStepper) ResultsLost() int     { return s.inner.ResultsLost() }
func (s *tracedStepper) MemBytes() int64      { return s.inner.MemBytes() }
func (s *tracedStepper) JoinStateTuples() int { return s.inner.JoinStateTuples() }

// children returns every wrapped span grouped by parent root index.
func (r *recorder) children() [][]span {
	out := make([][]span, len(r.roots))
	for _, q := range r.queries {
		for _, s := range q.spans {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// covered returns how much of [start, end) the union of the given spans
// covers: overlapping children (parallel workers) count once.
func covered(start, end time.Duration, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a root span's duration minus the part of it its children
// cover.
func selfTime(root span, kids []span) time.Duration {
	return root.dur() - covered(root.Start, root.End, kids)
}

// writeSpans writes every span of the pass as JSON lines: the roots in
// call order, then each query's children.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.roots {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, q := range r.queries {
		for _, s := range q.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
