package main

import (
	"math"
	"runtime"
	"time"

	"parcfl/internal/cfl"
	"parcfl/internal/kernel"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/sched"
	"parcfl/internal/share"
)

// Layer probes of a traced run. Each calls one layer through its public
// functions, outside the timed section, on the workload's own inputs.

func (r *run) layersProgram(p *program) {
	r.layers["javagen.generate_s"] = p.generateS
	r.layers["frontend.lower_s"] = p.lowerS
	r.layers["pag.nodes"] = float64(p.g.NumNodes())
	r.layers["pag.edges"] = float64(p.g.NumEdges())
	r.layers["pag.queries"] = float64(len(p.census))
}

// solverProbe is a sequential walk over a prefix of the census with a bare
// solver: no jmp store, no result cache, one span per query.
type solverProbe struct {
	steps  []int64         // per query
	took   []time.Duration // per query
	allocs uint64
}

func (r *run) probeSolver(p *program, queries []pag.NodeID, prep *kernel.Prep, limit int, name string) solverProbe {
	s := cfl.New(p.g, cfl.Config{Budget: budget, Kernel: prep})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var out solverProbe
	for start := time.Now(); len(out.steps) < limit && time.Since(start) < probeBox; {
		t0 := time.Now()
		res := s.PointsTo(queries[len(out.steps)], pag.EmptyContext)
		t1 := time.Now()
		r.rec.add(name, 0, int64(len(out.steps)+1), t0, t1)
		out.steps = append(out.steps, int64(res.Steps))
		out.took = append(out.took, t1.Sub(t0))
	}
	runtime.ReadMemStats(&ms)
	out.allocs = ms.Mallocs - before
	return out
}

// stepsPerSecond is the probe's rate over its first n queries.
func (sp solverProbe) stepsPerSecond(n int) float64 {
	var steps int64
	var took time.Duration
	for i := 0; i < n; i++ {
		steps += sp.steps[i]
		took += sp.took[i]
	}
	return ratio(float64(steps), took.Seconds())
}

// probeSolvers walks the census in map mode and with the kernel set, each
// for at most probeBox, and compares their rates on the queries both got
// through.
func (r *run) probeSolvers(p *program, queries []pag.NodeID) {
	plain := r.probeSolver(p, queries, nil, len(queries), "cfl.pointsto")
	n := len(plain.steps)
	rate := plain.stepsPerSecond(n)
	us := make([]float64, n)
	for i, d := range plain.took {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	us = sortedCopy(us)
	r.layers["cfl.seq_steps_per_s"] = rate
	r.layers["cfl.ns_per_step"] = ratio(1e9, rate)
	r.layers["cfl.allocs_per_query"] = ratio(float64(plain.allocs), float64(n))
	r.layers["cfl.query_us_p50"] = percentile(us, 0.50)
	r.layers["cfl.query_us_p95"] = percentile(us, 0.95)

	t0 := time.Now()
	prep := kernel.Build(p.g)
	r.layers["kernel.build_s"] = time.Since(t0).Seconds()
	kern := r.probeSolver(p, queries, prep, n, "kernel.pointsto")
	m := len(kern.steps)
	r.layers["kernel.seq_steps_per_s"] = kern.stepsPerSecond(m)
	r.layers["kernel.allocs_per_query"] = ratio(float64(kern.allocs), float64(m))
	r.layers["kernel.vs_cfl_ratio"] = ratio(kern.stepsPerSecond(m), plain.stepsPerSecond(m))
}

// probeSched times the plan the scheduler builds for one batch: what every
// engine.Run in DQ mode pays before its first solver step.
func (r *run) probeSched(p *program, batch []pag.NodeID) {
	var took []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		plan := sched.Schedule(p.g, batch, p.lo.TypeLevels)
		took = append(took, time.Since(t0).Seconds())
		r.layers["sched.groups"] = float64(len(plan.Groups))
		r.layers["sched.avg_group_size"] = plan.AvgGroupSize
	}
	r.layers["sched.schedule_s"] = median(took)
}

// meanBatch is the front of order, as long as the batches the daemons'
// batcher formed on average.
func (r *run) meanBatch(order []pag.NodeID) []pag.NodeID {
	n := int(math.Round(r.layers["server.batch_size_mean"]))
	return order[:min(max(n, 1), len(order))]
}

// layersSharing books the jmp store's side of a run.
func (r *run) layersSharing(st share.Stats, stepsSaved, totalSteps int64) {
	r.layers["share.jumps"] = float64(st.FinishedAdded + st.UnfinishedAdded)
	r.layers["share.hit_rate"] = st.HitRate()
	r.layers["share.steps_saved_share"] = ratio(float64(stepsSaved), float64(totalSteps))
}

// perOp times f over every entry, several times over, and returns
// nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	const reps = 5
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*n)
}

// probeShare replays a jmp store's own exported keys through Lookup, and
// through the put calls into a fresh store. Read the store's counters
// before calling: the lookups count.
func probeShare(st *share.Store) (lookupNS, putNS float64) {
	if st == nil {
		return 0, 0
	}
	_, entries := st.Export()
	lookupNS = perOp(len(entries), func(i int) { st.Lookup(entries[i].Key) })
	var fresh *share.Store
	putNS = perOp(len(entries), func(i int) {
		if i == 0 {
			fresh = share.NewStore(st.Config())
		}
		if e := entries[i]; e.Unfinished {
			fresh.PutUnfinished(e.Key, e.S)
		} else {
			fresh.PutFinished(e.Key, e.S, e.Targets)
		}
	})
	return lookupNS, putNS
}

// probeCache does the same for a result cache.
func probeCache(c *ptcache.Cache) (getNS, putNS float64) {
	if c == nil {
		return 0, 0
	}
	_, entries := c.Export()
	getNS = perOp(len(entries), func(i int) { c.Get(entries[i].Key) })
	var fresh *ptcache.Cache
	putNS = perOp(len(entries), func(i int) {
		if i == 0 {
			fresh = ptcache.New(64)
		}
		fresh.Put(entries[i].Key, entries[i].Set)
	})
	return getNS, putNS
}
