package main

import (
	"math"
	"runtime"
	"strconv"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/workload"
)

// poolSQL is the four-shape StreamSQL pool the engine scenarios of
// internal/bench draw from (its engineSQL); it is repeated here because
// the benchmark may use only exported engine API.
var poolSQL = []string{
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND T.id > 50 AND S.x = T.y + 5 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=1 sampleinterval=100]
WHERE S.rid = 0 AND T.rid = 3 AND S.cid = T.cid AND S.id % 4 = T.id % 4 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 10 AND T.id > 80 AND S.x = T.y + 5 AND S.u = T.u`,
	`SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 40 AND T.id > 60 AND S.x = T.y + 5 AND S.u = T.u`,
}

// sampleIntervalMS is the sample interval every generated query declares:
// an epoch that takes longer than this overruns real time.
const sampleIntervalMS = 100

// workloadDef is one benchmark workload: a seeded query schedule over a
// deployment, and the split of each pass into ramp epochs (counted as
// set-up) and steady-state epochs (where epoch latency is sampled). The
// ramp is the longest query lifetime, after which the live set is steady.
type workloadDef struct {
	name string
	// draws is how many schedules one round runs, one pass each.
	draws  int
	ramp   int
	steady int
	// plan derives a pass's inputs from a seed.
	plan func(seed uint64, epochs int) plan
}

// plan is everything the engine receives in one pass, generated from
// the seed before the engine is built.
type plan struct {
	opts     engine.Options
	arrivals []arrival // in epoch order
	// churnEpochs marks the epochs whose churn events fail a node.
	churnEpochs map[int]bool
}

// arrival is one query submitted at the top of an epoch. Exactly one of
// sql and q0Seed is set: q0Seed names a workload.Query0 spec, which must
// be built over the engine's own topology.
type arrival struct {
	epoch   int
	id      string
	sql     string
	q0Seed  uint64
	cycles  int
	sampler func() workload.Sampler
	rates   workload.Rates
}

// Seed streams: each input family draws from its own split of the seed,
// so changing one family never shifts another's draws.
const (
	streamArrivals = 0xA1
	streamShapes   = 0xA2
	streamLifetime = 0xA3
	streamQuery0   = 0xA4
	streamChurn    = 0xA5
	streamFaults   = 0xA6
	streamSampler  = 0xA7
)

var workloads = []*workloadDef{
	// Admission and stepping split the time and query shapes repeat; the
	// only workload that keeps a worker per CPU busy.
	{
		name:   "arrivals-100",
		draws:  4,
		ramp:   60,
		steady: 240,
		plan: func(seed uint64, epochs int) plan {
			return plan{
				opts:     engine.Options{Kind: topology.ModerateRandom, Nodes: 100, Workers: runtime.NumCPU()},
				arrivals: poissonArrivals(seed, epochs, 2, 20, 60, false),
			}
		},
	},
	// Per-query state dense in N dominates admission and heap, and
	// construction dominates set-up; no shape repeats.
	{
		name:   "scale-10k",
		draws:  2,
		ramp:   96,
		steady: 100,
		plan: func(seed uint64, epochs int) plan {
			return plan{
				opts:     engine.Options{Kind: topology.DenseRandom, Nodes: 10000},
				arrivals: poissonArrivals(seed, epochs, 1, 32, 96, true),
			}
		},
	},
	// Recovery and adaptivity write the routing substrate; admission
	// happens once per pass.
	{
		name:   "faults-1k",
		draws:  4,
		ramp:   10,
		steady: 60,
		plan:   faultsPlan,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// poissonArrivals draws a Poisson(rate) number of arrivals per epoch with
// lifetimes uniform in [minLife, maxLife] epochs. Each arrival is either a
// pool shape or, with query0, a fresh 4-pair Query0 spec seeded per
// arrival.
func poissonArrivals(seed uint64, epochs int, rate float64, minLife, maxLife int, query0 bool) []arrival {
	root := rng.New(seed)
	times := root.Split(streamArrivals)
	shapes := root.Split(streamShapes)
	life := root.Split(streamLifetime)
	q0 := root.Split(streamQuery0)
	var out []arrival
	for ep := 0; ep < epochs; ep++ {
		for k := poisson(times, rate); k > 0; k-- {
			a := arrival{
				epoch:  ep,
				id:     "q" + strconv.Itoa(len(out)),
				cycles: minLife + life.Intn(maxLife-minLife+1),
			}
			if query0 {
				a.q0Seed = q0.Uint64() | 1
			} else {
				a.sql = poolSQL[shapes.Intn(len(poolSQL))]
			}
			out = append(out, a)
		}
	}
	return out
}

// poisson draws a Poisson(mean) count by Knuth's product method, which
// is exact and cheap for the small means used here.
func poisson(src *rng.Source, mean float64) int {
	limit := math.Exp(-mean)
	k, p := 0, src.Float64()
	for p > limit {
		k++
		p *= src.Float64()
	}
	return k
}

// faultsPlan is faults-1k: two long-lived pool queries with adaptivity on,
// whose true rates flip every flipPeriod epochs, under seeded node churn
// and seeded link faults.
func faultsPlan(seed uint64, epochs int) plan {
	const (
		flipPeriod   = 20
		churnRate    = 0.0005
		churnRevive  = 5
		linkLoss     = 0.05
		linkFailRate = 0.001
		linkRevive   = 3
		nodes        = 1000
	)
	root := rng.New(seed)
	churn := engine.SeededChurn(root.Split(streamChurn).Uint64(), nodes, epochs, churnRate, churnRevive)
	churnEpochs := map[int]bool{}
	for _, ev := range churn {
		if !ev.Revive {
			churnEpochs[ev.Epoch] = true
		}
	}
	sHeavy := workload.Rates{SigmaS: 0.9, SigmaT: 0.1, SigmaST: 0.1}
	tHeavy := workload.Rates{SigmaS: 0.1, SigmaT: 0.9, SigmaST: 0.1}
	samplers := root.Split(streamSampler)
	var arrivals []arrival
	// Shapes 0 and 3 of the pool select by id range. They are fixed, not
	// drawn: the region shape costs about six times as much per epoch on
	// 1k nodes, so drawing it in some passes made the figures bimodal.
	for i, shape := range []int{0, 3} {
		sseed := samplers.Uint64()
		arrivals = append(arrivals, arrival{
			id:    "q" + strconv.Itoa(i),
			sql:   poolSQL[shape],
			rates: sHeavy,
			sampler: func() workload.Sampler {
				return &flipSampler{
					a:      workload.NewGenerator(sHeavy, sseed),
					b:      workload.NewGenerator(tHeavy, sseed),
					period: flipPeriod,
				}
			},
		})
	}
	return plan{
		opts: engine.Options{
			Kind: topology.ModerateRandom, Nodes: nodes, Adapt: true, Churn: churn,
			Faults: &faults.Config{
				Seed:            root.Split(streamFaults).Uint64(),
				LinkLoss:        linkLoss,
				LinkFailRate:    linkFailRate,
				LinkReviveAfter: linkRevive,
			},
		},
		arrivals:    arrivals,
		churnEpochs: churnEpochs,
	}
}

// flipSampler alternates between two generators every period cycles.
// Both share one seed, and a generator's draws are a pure function of
// (seed, node, cycle, role), so only the rates flip, not the stream.
type flipSampler struct {
	a, b   *workload.Generator
	period int
}

func (f *flipSampler) Sample(id topology.NodeID, role query.Rel, cycle int) (int32, bool) {
	if (cycle/f.period)%2 == 0 {
		return f.a.Sample(id, role, cycle)
	}
	return f.b.Sample(id, role, cycle)
}

// queryConfig turns an arrival into the engine's input; specs are built
// over the engine's own topology and node statics.
func (a *arrival) queryConfig(e *engine.Engine) engine.QueryConfig {
	qc := engine.QueryConfig{ID: a.id, SQL: a.sql, Cycles: a.cycles, Rates: a.rates}
	if a.q0Seed != 0 {
		rates := workload.Rates{SigmaS: 0.5, SigmaT: 0.5, SigmaST: 0.1}
		qc.Spec = workload.Query0(e.Topo, e.Nodes, 4, rates, a.q0Seed)
	}
	if a.sampler != nil {
		qc.Sampler = a.sampler()
	}
	return qc
}
