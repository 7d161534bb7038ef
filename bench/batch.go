package main

import (
	"fmt"
	"slices"
	"time"

	"parcfl/internal/engine"
	"parcfl/internal/pag"
	"parcfl/internal/share"
)

func runBatchSeq(r *run) error { return runBatch(r, engine.Seq, 1) }
func runBatchDQ(r *run) error  { return runBatch(r, engine.DQ, threads()) }

// batchPass answers the census once. A sharing mode gets a fresh jmp store,
// returned so that a traced run can probe it. The pass's spans are rebuilt
// from what engine.Run reports: Stats.Wall is the worker pool's time, and
// what the call spent before it is the scheduler's.
func batchPass(p *program, queries []pag.NodeID, mode engine.Mode, workers int, rec *recorder) ([]engine.QueryResult, engine.Stats, *share.Store, time.Duration) {
	cfg := engine.Config{Mode: mode, Threads: workers, Budget: budget, TypeLevels: p.lo.TypeLevels}
	if mode == engine.D || mode == engine.DQ {
		cfg.Store = share.NewStore(share.DefaultConfig())
	}
	t0 := time.Now()
	results, st := engine.Run(p.g, queries, cfg)
	t1 := time.Now()
	pass := rec.add("pass", 0, 0, t0, t1)
	poolStart := t1.Add(-st.Wall)
	if mode == engine.DQ {
		rec.add("sched.schedule", pass, 0, t0, poolStart)
	}
	rec.add("engine.run", pass, 0, poolStart, t1)
	return results, st, cfg.Store, t1.Sub(t0)
}

// runBatch times whole-census passes of engine.Run. The caller-visible
// operation is a pass: p50_ms is the median pass, p95_ms the slowest (the
// highest percentile a handful of passes supports), qps the queries a pass
// answers per second.
func runBatch(r *run, mode engine.Mode, workers int) error {
	var p *program
	if _, err := r.setup(func() (func(), error) {
		var err error
		p, err = buildProgram(r.spec.Preset, r.spec.Scale)
		return nil, err
	}); err != nil {
		return err
	}
	queries := shuffled(p.census, r.opt.seed)
	r.layersProgram(p)

	// A traced DQ run spends its first pass on the sequential baseline of
	// engine.wall_speedup.
	start := time.Now()
	var seqWall float64
	if r.rec != nil && mode == engine.DQ {
		_, st, _, _ := batchPass(p, queries, engine.Seq, 1, nil)
		seqWall = st.Wall.Seconds()
	}

	var (
		wallMS, qps, walked, runS []float64
		last                      []engine.QueryResult
		lastStats                 engine.Stats
		lastStore                 *share.Store
		untracedQPS               float64
	)
	for n := 0; ; n++ {
		// The first pass of a traced run records no spans: it is the
		// baseline of trace_overhead_share.
		rec := r.rec
		if n == 0 {
			rec = nil
		}
		results, st, store, wall := batchPass(p, queries, mode, workers, rec)
		if r.rec != nil && n == 0 {
			untracedQPS = float64(len(results)) / wall.Seconds()
		} else {
			wallMS = append(wallMS, float64(wall)/float64(time.Millisecond))
			qps = append(qps, float64(len(results))/wall.Seconds())
		}
		walked = append(walked, float64(st.StepsWalked()))
		runS = append(runS, st.Wall.Seconds())
		last, lastStats, lastStore = results, st, store

		if err := checkGolden(r.spec.Name, digest(results), r.opt.updateGolden); err != nil {
			r.fail(len(results), fmt.Sprintf("pass %d: %v", n, err))
		} else {
			for _, q := range results {
				if q.Aborted {
					r.count(unanswered)
				} else {
					r.count(answered)
				}
			}
		}
		if elapsed := time.Since(start); n+1 >= minPasses && (elapsed+wall/2).Seconds() > r.opt.seconds {
			break
		}
	}
	r.passes("p50_ms", wallMS)
	r.e2e["p95_ms"] = slices.Max(wallMS)
	r.passes("qps", qps)
	r.finishTimed()

	// The Andersen oracle takes 2.4 s on the avrora-shaped program and over
	// two minutes on the library-heavy one, which is why only the former
	// gets it.
	if r.spec.Preset == "avrora" {
		if bad := checkAndersen(p.g, last); bad > 0 {
			r.fail(bad, fmt.Sprintf("%d answers exceed the Andersen superset", bad))
		}
	}
	if r.rec == nil {
		return nil
	}

	st := lastStats
	r.layers["cfl.steps_walked"] = median(walked)
	r.layers["cfl.aborted_share"] = ratio(float64(st.Aborted), float64(st.Queries))
	r.layers["engine.run_s"] = median(runS)
	r.layers["engine.max_worker_walked_share"] = ratio(float64(st.MaxWorkerWalked()), float64(st.StepsWalked()))
	r.layers["trace_overhead_share"] = 1 - ratio(median(qps), untracedQPS)
	if mode == engine.DQ {
		r.layers["engine.wall_speedup"] = ratio(seqWall, median(runS))
		r.layersSharing(st.Share, st.StepsSaved, st.TotalSteps)
		r.layers["share.early_terminations"] = float64(st.EarlyTerminations)
		r.layers["share.lookup_ns"], r.layers["share.put_ns"] = probeShare(lastStore)
		r.probeSched(p, queries)
	}
	r.probeSolvers(p, queries)
	return nil
}
