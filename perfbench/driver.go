package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
)

// pass is what one run of a workload's schedule, from engine.New to the
// drain, measured and produced.
type pass struct {
	setup time.Duration
	// epochs are the steady-state epochs, each its Submit calls plus its
	// Step. admits holds every admission: from a query's Submit to the
	// return of the Step that admits it (the same epoch's Step).
	epochs, admits []time.Duration
	// loop is the time spent in Submit and Step over every epoch; steady
	// the same over steady-state epochs, which stepped queryEpochs live
	// query-epochs.
	loop, steady time.Duration
	queryEpochs  int
	// allQueryEpochs counts live query-epochs over every epoch.
	allQueryEpochs int
	// heap is the live heap after a GC at the end of the last epoch, less
	// the live heap before the engine was built.
	heap uint64
	// Runtime counters over the epoch loop.
	allocBytes, gcCycles uint64
	gcPause              time.Duration

	submitted, failed int
	retained          int
	rep               *engine.Report
	canon             []byte
	rec               *recorder
	plan              *plan
}

// runPass runs the plan once on a fresh engine. workers overrides the
// plan's worker count when non-zero; rec, when non-nil, wraps every query
// in the traced algorithm and records spans. A panic anywhere in the pass
// is returned as an error.
func runPass(w *workloadDef, p *plan, workers int, rec *recorder) (out pass, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pass panicked: %v", r)
		}
	}()
	epochs := w.ramp + w.steady
	opts := p.opts
	if workers != 0 {
		opts.Workers = workers
	}
	live := liveQueries(p.arrivals, epochs)
	// Collect the previous pass's engine now, so that no pass pays for
	// another's garbage, and take the live heap the pass starts from.
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	base := ms0.HeapAlloc

	t0 := time.Now()
	i := rec.begin("engine.New", "", -1)
	e := engine.New(opts)
	rec.end(i)
	out.setup = time.Since(t0)

	cfgs := make([]engine.QueryConfig, len(p.arrivals))
	for k := range p.arrivals {
		cfgs[k] = p.arrivals[k].queryConfig(e)
		if rec != nil {
			cfgs[k].Algorithm = rec.wrap(cfgs[k].ID)
		}
	}
	starts := make([]time.Time, len(p.arrivals))
	runtime.ReadMemStats(&ms0)

	next := 0
	for ep := 0; ep < epochs; ep++ {
		first := next
		t0 := time.Now()
		for ; next < len(p.arrivals) && p.arrivals[next].epoch == ep; next++ {
			starts[next] = time.Now()
			i := rec.begin("engine.Submit", cfgs[next].ID, ep)
			_, err := e.Submit(cfgs[next])
			rec.end(i)
			out.submitted++
			if err != nil {
				out.failed++
			}
		}
		i := rec.begin("engine.Step", "", ep)
		e.Step()
		rec.end(i)
		t1 := time.Now()
		d := t1.Sub(t0)
		out.loop += d
		out.allQueryEpochs += live[ep]
		for k := first; k < next; k++ {
			out.admits = append(out.admits, t1.Sub(starts[k]))
		}
		if ep < w.ramp {
			out.setup += d
			continue
		}
		out.steady += d
		out.epochs = append(out.epochs, d)
		out.queryEpochs += live[ep]
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	out.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out.heap = ms1.HeapAlloc - base
	out.retained = len(e.Queries())

	i = rec.begin("engine.Drain", "", epochs)
	out.rep = e.Run(0)
	rec.end(i)
	out.canon, err = json.Marshal(out.rep)
	out.rec, out.plan = rec, p
	return out, err
}

// liveQueries counts, per epoch, the queries that step in it: a query
// submitted at epoch a with lifetime c steps in epochs [a, a+c), and one
// with no lifetime steps until the end.
func liveQueries(arrivals []arrival, epochs int) []int {
	live := make([]int, epochs)
	for _, a := range arrivals {
		end := epochs
		if a.cycles > 0 {
			end = min(epochs, a.epoch+a.cycles)
		}
		for ep := a.epoch; ep < end; ep++ {
			live[ep]++
		}
	}
	return live
}
