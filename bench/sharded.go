package main

import (
	"context"
	"time"

	"parcfl/internal/cluster"
	"parcfl/internal/cluster/router"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/server"
)

// shardedCluster is two snapshot-restored shard daemons behind a router,
// all on loopback.
type shardedCluster struct {
	wm     *warm
	plan   *cluster.Plan
	shards []*server.Server
	rt     *router.Router
	front  *listener // the router's
	backs  []*listener

	buildPlanS, filterS, restoreS float64
}

func buildCluster(w workloadSpec) (*shardedCluster, error) {
	c := &shardedCluster{}
	if err := c.start(w); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *shardedCluster) start(w workloadSpec) (err error) {
	if c.wm, err = buildWarm(w); err != nil {
		return err
	}
	t0 := time.Now()
	if c.plan, err = cluster.BuildPlan(c.wm.snap.Graph, shardCount); err != nil {
		return err
	}
	c.buildPlanS = time.Since(t0).Seconds()
	addrs := make([]string, shardCount)
	for i := 0; i < shardCount; i++ {
		t1 := time.Now()
		slice, err := cluster.FilterSnapshot(c.wm.snap, c.plan, i)
		if err != nil {
			return err
		}
		t2 := time.Now()
		cfg := serverConfig(c.wm.p)
		cfg.ShardOf, cfg.ShardIndex, cfg.ShardCount, cfg.ShardPlan = c.plan.ShardOf, i, shardCount, slice.ShardPlan
		srv := server.NewFromSnapshot(slice, cfg)
		c.shards = append(c.shards, srv)
		c.filterS += t2.Sub(t1).Seconds()
		c.restoreS += time.Since(t2).Seconds()
		ln, err := listen(server.NewHandler(srv, server.HandlerConfig{}))
		if err != nil {
			return err
		}
		c.backs = append(c.backs, ln)
		addrs[i] = ln.url
	}
	// No background prober: request outcomes keep shard health current.
	if c.rt, err = router.New(router.Config{Plan: c.plan, Shards: addrs, HealthInterval: -1}); err != nil {
		return err
	}
	c.front, err = listen(router.NewHandler(c.rt, router.HandlerConfig{}))
	return err
}

func (c *shardedCluster) stop() {
	if c.front != nil {
		c.front.stop()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, ln := range c.backs {
		ln.stop()
	}
	for _, srv := range c.shards {
		srv.Close()
	}
}

func (c *shardedCluster) stats() []server.Stats {
	out := make([]server.Stats, len(c.shards))
	for i, srv := range c.shards {
		out[i] = srv.Stats()
	}
	return out
}

func runServeSharded(r *run) error {
	var c *shardedCluster
	teardown, err := r.setup(func() (func(), error) {
		var err error
		if c, err = buildCluster(r.spec); err != nil {
			return nil, err
		}
		return c.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	wm := c.wm
	ref := newReference(wm.p.g, wm.census)

	// Requests are runs of the seed's census order, so nearly every one
	// holds variables of both shards.
	order := shuffled(wm.p.census, r.opt.seed)
	var chunks [][]pag.NodeID
	var names [][]string
	for i := 0; i+shardedChunk <= len(order); i += shardedChunk {
		chunk := order[i : i+shardedChunk]
		chunks = append(chunks, chunk)
		ns := make([]string, len(chunk))
		for j, v := range chunk {
			ns[j] = nodeName(v)
		}
		names = append(names, ns)
	}
	cl := r.newClient(c.front.url, threads())
	ph := &phases{}

	before := c.stats()
	start := time.Now()
	r.servePasses(threads(), func(traced bool, i int) (time.Duration, bool) {
		k := i % len(chunks)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		var rt roundTrip
		if traced {
			ctx = context.WithValue(ctx, roundTripKey{}, &rt)
		}
		t0 := time.Now()
		reply, err := cl.QueryRequest(ctx, "", names[k], 0)
		t1 := time.Now()
		if err != nil {
			r.fail(len(chunks[k]), err.Error())
			return 0, false
		}
		for j, v := range chunks[k] {
			r.count(ref.checkWire(wm.p.g, v, reply.Results[j]))
		}
		if traced {
			r.served(ph, int64(i+1), t0, t1, &rt, reply.Results)
		}
		return t1.Sub(t0), true
	})
	wall := time.Since(start)
	after := c.stats()
	r.finishTimed()
	r.checkReference(wm.p, wm.census)
	if r.rec == nil {
		return nil
	}

	r.layersWarm(wm)
	r.layers["server.restore_s"] = c.restoreS
	r.layersPhases(ph)
	r.layersServer(before, after, wall)
	r.layers["cluster.buildplan_s"] = c.buildPlanS
	r.layers["cluster.filter_snapshot_s"] = c.filterS
	// Behind the router the exchange's overhead is both hops and the
	// router's split and merge.
	r.layers["router.hop_overhead_us"] = r.layers["http.roundtrip_overhead_us"]
	owned := make([]int, shardCount)
	for _, v := range wm.p.census {
		owned[c.plan.ShardOf(v)]++
	}
	r.layers["cluster.heaviest_shard_query_share"] = ratio(float64(max(owned[0], owned[1])), float64(len(wm.p.census)))
	subs := 0
	for _, chunk := range chunks {
		hit := make(map[int]bool)
		for _, v := range chunk {
			hit[c.plan.ShardOf(v)] = true
		}
		subs += len(hit)
	}
	r.layers["router.subrequests_per_request"] = ratio(float64(subs), float64(len(chunks)))
	r.probeSched(wm.p, r.meanBatch(order))
	r.probeSolvers(wm.p, order)
	return nil
}

// attachedSink builds the observability stack parcfld attaches to a daemon
// with tracing and the flight recorder on: counters, span rings, sampled
// timeseries, exemplars, the tail-sampled trace store and the SLO tracker.
// stop ends the recorder's goroutine.
func attachedSink() (sink *obs.Sink, stop func()) {
	sink = obs.New(obs.Config{Workers: threads(), TraceCap: 1 << 14})
	sink.EnableSpans(threads(), 1<<16)
	rec := obs.NewRecorder(sink, obs.RecorderConfig{Interval: 250 * time.Millisecond})
	sink.AttachRecorder(rec)
	rec.Start()
	sink.EnableExemplars()
	sink.AttachTraceStore(obs.NewTraceStore(sink, obs.TraceStoreConfig{Capacity: 512}))
	sink.AttachSLO(obs.NewSLO(obs.SLOConfig{}))
	return sink, rec.Stop
}
