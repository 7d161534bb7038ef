package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parcfl/internal/engine"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/server"
	"parcfl/internal/share"
	"parcfl/internal/snapshot"
)

// requestTimeout bounds every served request; one that outlives it has
// failed.
const requestTimeout = 10 * time.Second

// warm is a program whose census has been answered once, with the state
// that left behind taken through the snapshot codec, as a daemon restart
// does.
type warm struct {
	p      *program
	census []engine.QueryResult
	raw    []byte // the encoded snapshot
	snap   *snapshot.Snapshot

	writeS, readS float64
}

// answerCensus answers the whole census the way a daemon would, DQ with a
// jmp store and a result cache, and returns the state that leaves behind.
func answerCensus(p *program) ([]engine.QueryResult, *share.Store, *ptcache.Cache) {
	store, cache := share.NewStore(share.DefaultConfig()), ptcache.New(64)
	results, _ := engine.Run(p.g, p.census, engine.Config{
		Mode: engine.DQ, Threads: threads(), Budget: budget, TypeLevels: p.lo.TypeLevels,
		Store: store, Cache: cache,
	})
	return results, store, cache
}

func buildWarm(w workloadSpec) (*warm, error) {
	p, err := buildProgram(w.Preset, w.Scale)
	if err != nil {
		return nil, err
	}
	results, store, cache := answerCensus(p)
	var buf bytes.Buffer
	t0 := time.Now()
	err = snapshot.Write(&buf, &snapshot.Snapshot{Graph: p.g, Store: store, Cache: cache, Meta: snapshot.Meta{
		Label: "bench", TypeLevels: p.lo.TypeLevels, QueryVars: p.census, Budget: budget,
	}})
	if err != nil {
		return nil, fmt.Errorf("snapshot write: %w", err)
	}
	wm := &warm{p: p, census: results, raw: buf.Bytes(), writeS: time.Since(t0).Seconds()}
	t1 := time.Now()
	if wm.snap, err = wm.reread(); err != nil {
		return nil, err
	}
	wm.readS = time.Since(t1).Seconds()
	return wm, nil
}

// reread decodes the snapshot again, for a second daemon that must not
// share live state with the first.
func (wm *warm) reread() (*snapshot.Snapshot, error) {
	s, err := snapshot.Read(bytes.NewReader(wm.raw))
	if err != nil {
		return nil, fmt.Errorf("snapshot read: %w", err)
	}
	return s, nil
}

func (r *run) layersWarm(wm *warm) {
	r.layersProgram(wm.p)
	r.layers["snapshot.write_s"] = wm.writeS
	r.layers["snapshot.read_s"] = wm.readS
	r.layers["snapshot.bytes"] = float64(len(wm.raw))
}

// serverConfig is the shipped daemon configuration: every field the
// benchmark does not name keeps its default, the 2 ms batch window
// included.
func serverConfig(p *program) server.Config {
	return server.Config{
		Threads: threads(), Budget: budget, TypeLevels: p.lo.TypeLevels,
		QueryVars: p.census, ResultCache: true,
	}
}

// listener is an HTTP handler served on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // always http.ErrServerClosed after stop
	}()
	return l, nil
}

func (l *listener) stop() {
	_ = l.hs.Close()
	<-l.done
}

// roundTrip is what a traced run learns about one HTTP exchange from
// outside the client: when the transport took the request, when the caller
// closed the reply, and how long the reply was.
type roundTrip struct {
	start, end time.Time
	bytes      int
}

type roundTripKey struct{}

// timingTransport fills the roundTrip a request's context carries.
type timingTransport struct{ base http.RoundTripper }

func (t timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, _ := req.Context().Value(roundTripKey{}).(*roundTrip)
	if rt == nil {
		return t.base.RoundTrip(req)
	}
	rt.start = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rt: rt}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	rt *roundTrip
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rt.bytes += n
	return n, err
}

func (b *timedBody) Close() error {
	b.rt.end = time.Now()
	return b.ReadCloser.Close()
}

// newClient returns the shipped client over a keep-alive pool of conns
// connections; a traced run's transport also times each exchange.
func (r *run) newClient(url string, conns int) *server.Client {
	var tr http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: conns}
	if r.rec != nil {
		tr = timingTransport{tr}
	}
	return server.NewClient(url, &http.Client{Transport: tr})
}

// phases collects, over a traced run, the server's own account of each
// served query and the client's account of each exchange.
type phases struct {
	mu                                   sync.Mutex
	admit, queue, solve, fanout, marshal []float64 // microseconds, per query
	overhead, replyBytes                 []float64 // per exchange
	latMS                                []float64 // per request, every pass
}

func (ph *phases) query(t server.Timings) {
	ph.admit = append(ph.admit, float64(t.AdmitNS)/1e3)
	ph.queue = append(ph.queue, float64(t.QueueWaitNS)/1e3)
	ph.solve = append(ph.solve, float64(t.SolveNS)/1e3)
	ph.fanout = append(ph.fanout, float64(t.FanoutNS)/1e3)
	ph.marshal = append(ph.marshal, float64(t.MarshalNS)/1e3)
}

func (r *run) layersPhases(ph *phases) {
	r.layers["server.admit_us"] = median(ph.admit)
	r.layers["server.queue_wait_us"] = median(ph.queue)
	r.layers["server.solve_us"] = median(ph.solve)
	r.layers["server.fanout_us"] = median(ph.fanout)
	r.layers["http.marshal_us"] = median(ph.marshal)
	r.layers["http.roundtrip_overhead_us"] = median(ph.overhead)
	r.layers["http.reply_bytes"] = median(ph.replyBytes)
	r.layers["server.p99_ms"] = percentile(sortedCopy(ph.latMS), 0.99)
}

// served books one traced HTTP request: its spans, rebuilt from the slowest
// query's Timings and centred in the exchange, and its phase samples. The
// exchange's overhead is the client's wall minus what the server accounts
// for, so on one daemon the phases and the overhead add up to the wall.
func (r *run) served(ph *phases, req int64, t0, t1 time.Time, rt *roundTrip, results []server.VarResult) {
	var slow server.Timings
	ph.mu.Lock()
	defer ph.mu.Unlock()
	for _, res := range results {
		if res.Timings == nil {
			continue
		}
		ph.query(*res.Timings)
		if res.Timings.TotalNS+res.Timings.MarshalNS >= slow.TotalNS+slow.MarshalNS {
			slow = *res.Timings
		}
	}
	inServer := time.Duration(slow.TotalNS + slow.MarshalNS)
	overhead := t1.Sub(t0) - inServer
	ph.overhead = append(ph.overhead, float64(overhead)/float64(time.Microsecond))
	ph.replyBytes = append(ph.replyBytes, float64(rt.bytes))
	ph.latMS = append(ph.latMS, float64(t1.Sub(t0))/float64(time.Millisecond))

	root := r.rec.add("client.request", 0, req, t0, t1)
	trip := r.rec.add("http.roundtrip", root, req, rt.start, rt.end)
	r.phaseSpans(trip, req, rt.start.Add((rt.end.Sub(rt.start)-inServer)/2), slow)
}

// phaseSpans lays the server's account of a request end to end from at, as
// children of parent. Only the HTTP surface fills MarshalNS.
func (r *run) phaseSpans(parent int, req int64, at time.Time, t server.Timings) {
	for _, c := range []struct {
		name string
		ns   int64
	}{
		{"server.admit", t.AdmitNS}, {"server.queue_wait", t.QueueWaitNS}, {"server.solve", t.SolveNS},
		{"server.fanout", t.FanoutNS}, {"http.marshal", t.MarshalNS},
	} {
		if c.ns == 0 {
			continue
		}
		end := at.Add(time.Duration(c.ns))
		r.rec.add(c.name, parent, req, at, end)
		at = end
	}
}

// closedLoop runs clients callers for dur, each sending its next request
// only after the previous reply. do sends request number i, drawn from next
// so that numbering carries on from one pass to the following one, and
// reports its latency and whether it succeeded. It returns the successes'
// latencies and the wall time.
func closedLoop(dur time.Duration, clients int, next *atomic.Int64, do func(i int) (time.Duration, bool)) (lat []time.Duration, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			for time.Since(start) < dur {
				if d, ok := do(int(next.Add(1) - 1)); ok {
					mine = append(mine, d)
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

// servePasses runs the closed loop in equal passes and books qps, p50_ms
// and p95_ms as the medians over them. In a traced run the first pass runs
// untraced, as the baseline of trace_overhead_share.
func (r *run) servePasses(clients int, do func(traced bool, i int) (time.Duration, bool)) {
	var qps, p50, p95 []float64
	var untracedQPS float64
	var next atomic.Int64
	for n := 0; n < servePasses; n++ {
		traced := r.rec != nil && n > 0
		lat, wall := closedLoop(time.Duration(r.opt.seconds/servePasses*float64(time.Second)), clients, &next,
			func(i int) (time.Duration, bool) { return do(traced, i) })
		ms := sortedMS(lat)
		if r.rec != nil && n == 0 {
			untracedQPS = float64(len(lat)) / wall.Seconds()
			continue
		}
		qps = append(qps, float64(len(lat))/wall.Seconds())
		p50 = append(p50, percentile(ms, 0.50))
		p95 = append(p95, percentile(ms, 0.95))
	}
	r.passes("qps", qps)
	r.passes("p50_ms", p50)
	r.passes("p95_ms", p95)
	r.layers["trace_overhead_share"] = 1 - ratio(median(qps), untracedQPS)
}

// checkReference verifies the census that served replies are compared with
// against the golden digest and the Andersen oracle (every serving workload
// runs on the avrora-shaped program, where the oracle takes well under a
// second).
func (r *run) checkReference(p *program, census []engine.QueryResult) {
	if err := checkGolden(r.spec.Name, digest(census), r.opt.updateGolden); err != nil {
		r.fail(len(census), err.Error())
	}
	if bad := checkAndersen(p.g, census); bad > 0 {
		r.fail(bad, fmt.Sprintf("%d reference answers exceed the Andersen superset", bad))
	}
}

// layersServer books what the daemons' cumulative Stats say about the timed
// section: after minus before, summed over daemons.
func (r *run) layersServer(before, after []server.Stats, wall time.Duration) {
	var d server.Stats
	for i := range after {
		a, b := after[i], before[i]
		d.Requests += a.Requests - b.Requests
		d.Coalesced += a.Coalesced - b.Coalesced
		d.Rejected += a.Rejected - b.Rejected
		d.Batches += a.Batches - b.Batches
		d.Queries += a.Queries - b.Queries
		d.Aborted += a.Aborted - b.Aborted
		d.TotalSteps += a.TotalSteps - b.TotalSteps
		d.StepsSaved += a.StepsSaved - b.StepsSaved
		d.EngineNS += a.EngineNS - b.EngineNS
		d.Share.Lookups += a.Share.Lookups - b.Share.Lookups
		d.Share.LookupHits += a.Share.LookupHits - b.Share.LookupHits
		d.Share.FinishedAdded += a.Share.FinishedAdded - b.Share.FinishedAdded
		d.Share.UnfinishedAdded += a.Share.UnfinishedAdded - b.Share.UnfinishedAdded
		d.Cache.Hits += a.Cache.Hits - b.Cache.Hits
		d.Cache.Misses += a.Cache.Misses - b.Cache.Misses
	}
	r.layers["server.batch_size_mean"] = ratio(float64(d.Queries), float64(d.Batches))
	r.layers["server.coalesced_share"] = ratio(float64(d.Coalesced), float64(d.Requests))
	r.layers["server.rejected_share"] = ratio(float64(d.Rejected), float64(d.Requests+d.Rejected))
	r.layers["server.engine_busy_share"] = ratio(float64(d.EngineNS), float64(len(after))*float64(wall.Nanoseconds()))
	r.layers["cfl.steps_walked"] = float64(d.TotalSteps - d.StepsSaved)
	r.layers["cfl.aborted_share"] = ratio(float64(d.Aborted), float64(d.Queries))
	r.layersSharing(d.Share, d.StepsSaved, d.TotalSteps)
	r.layers["ptcache.hit_rate"] = d.Cache.HitRate()
}

// nodeName is how the benchmark names a variable on the wire: its decimal
// node id, which every daemon and the router resolve alike.
func nodeName(v pag.NodeID) string { return strconv.Itoa(int(v)) }

func runServeWarm(r *run) error {
	var (
		wm       *warm
		srv      *server.Server
		restoreS float64
		ln       *listener
	)
	teardown, err := r.setup(func() (func(), error) {
		var err error
		if wm, err = buildWarm(r.spec); err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv = server.NewFromSnapshot(wm.snap, serverConfig(wm.p))
		restoreS = time.Since(t0).Seconds()
		if ln, err = listen(server.NewHandler(srv, server.HandlerConfig{})); err != nil {
			srv.Close()
			return nil, err
		}
		s, l := srv, ln
		return func() { l.stop(); s.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	ref := newReference(wm.p.g, wm.census)
	order := shuffled(wm.p.census, r.opt.seed)
	cl := r.newClient(ln.url, 1)
	ph := &phases{}

	before := srv.Stats()
	start := time.Now()
	r.servePasses(1, func(traced bool, i int) (time.Duration, bool) {
		v := order[i%len(order)]
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		var rt roundTrip
		if traced {
			ctx = context.WithValue(ctx, roundTripKey{}, &rt)
		}
		t0 := time.Now()
		reply, err := cl.QueryRequest(ctx, "", []string{nodeName(v)}, 0)
		t1 := time.Now()
		if err != nil {
			r.fail(1, err.Error())
			return 0, false
		}
		r.count(ref.checkWire(wm.p.g, v, reply.Results[0]))
		if traced {
			r.served(ph, int64(i+1), t0, t1, &rt, reply.Results)
		}
		return t1.Sub(t0), true
	})
	wall := time.Since(start)
	after := srv.Stats()
	r.finishTimed()
	r.checkReference(wm.p, wm.census)
	if r.rec == nil {
		return nil
	}

	r.layersWarm(wm)
	r.layers["server.restore_s"] = restoreS
	r.layersPhases(ph)
	r.layersServer([]server.Stats{before}, []server.Stats{after}, wall)
	r.layers["ptcache.get_ns"], r.layers["ptcache.put_ns"] = probeCache(wm.snap.Cache)
	r.layers["share.lookup_ns"], r.layers["share.put_ns"] = probeShare(wm.snap.Store)
	if err := r.probeInProcess(wm, order); err != nil {
		return err
	}
	r.probeSched(wm.p, r.meanBatch(order))
	r.probeSolvers(wm.p, order)
	return nil
}

// inProcessLoop is a one-caller closed loop of direct QueryRequest calls
// for probeBox, cycling order. It returns the latencies and the rate.
func inProcessLoop(srv *server.Server, order []pag.NodeID) (us []float64, qps float64) {
	var next atomic.Int64
	lat, wall := closedLoop(probeBox, 1, &next, func(i int) (time.Duration, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		t0 := time.Now()
		_, err := srv.QueryRequest(ctx, order[i%len(order)])
		return time.Since(t0), err == nil
	})
	for _, d := range lat {
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	sort.Float64s(us)
	return us, float64(len(lat)) / wall.Seconds()
}

// probeInProcess prices the HTTP surface and the observability stack from
// outside: the same warm state served by direct calls, once with no sink
// and once with everything parcfld attaches.
func (r *run) probeInProcess(wm *warm, order []pag.NodeID) error {
	rates := make([]float64, 2)
	for i, sink := range []bool{false, true} {
		snap, err := wm.reread()
		if err != nil {
			return err
		}
		cfg := serverConfig(wm.p)
		stop := func() {}
		if sink {
			cfg.Obs, stop = attachedSink()
		}
		srv := server.NewFromSnapshot(snap, cfg)
		us, qps := inProcessLoop(srv, order)
		srv.Close()
		stop()
		rates[i] = qps
		if !sink {
			r.layers["server.inproc_p50_us"] = percentile(us, 0.50)
		}
	}
	r.layers["obs.attached_qps_loss_share"] = 1 - ratio(rates[1], rates[0])
	return nil
}

func runServeOpen(r *run) error {
	var p *program
	if _, err := r.setup(func() (func(), error) {
		var err error
		p, err = buildProgram(r.spec.Preset, r.spec.Scale)
		return nil, err
	}); err != nil {
		return err
	}
	// The reference census is the benchmark's, not the daemon's: every
	// round starts from server.New, so it is no part of set-up.
	census, _, _ := answerCensus(p)
	ref := newReference(p.g, census)
	// Popularity is a property of the population, so the rank order is the
	// same on every seed; the seed draws the arrivals and the variables.
	population := shuffled(p.census, 20140901)
	var ph *phases
	if r.rec != nil {
		ph = &phases{}
	}

	var qps, p50, p95, lateMS, loMS, first, repeat []float64
	var sent, within int
	var stats []server.Stats
	var busy time.Duration
	round := time.Duration(r.opt.seconds / openRounds * float64(time.Second))
	for n := 0; n < openRounds; n++ {
		rng := rand.New(rand.NewSource(r.opt.seed*openRounds + int64(n)))
		pick := zipfPicker(rng, zipfS, len(population))
		// A traced round spends its first third at the low rate, against a
		// daemon of its own.
		hiFor := round
		if r.rec != nil {
			hiFor = round * 2 / 3
			lo := r.openPhase(p, ref, population, poissonSchedule(rng, openRateLo, round-hiFor, pick), nil)
			loMS = append(loMS, lo.sum.LatMS...)
			lateMS = append(lateMS, lo.sum.LateMS...)
		}
		hi := r.openPhase(p, ref, population, poissonSchedule(rng, openRateHi, hiFor, pick), ph)
		qps = append(qps, float64(hi.sum.OK)/hi.wall.Seconds())
		p50 = append(p50, percentile(hi.sum.LatMS, 0.50))
		p95 = append(p95, percentile(hi.sum.LatMS, 0.95))
		lateMS = append(lateMS, hi.sum.LateMS...)
		sent += hi.sum.Sent
		within += hi.sum.WithinLimit
		first, repeat = append(first, hi.firstMS...), append(repeat, hi.repeatMS...)
		stats = append(stats, hi.stats)
		busy += hi.wall
	}
	r.passes("qps", qps)
	r.passes("p50_ms", p50)
	r.passes("p95_ms", p95)
	r.finishTimed()
	r.checkReference(p, census)
	if r.rec == nil {
		return nil
	}

	r.layersProgram(p)
	r.layersPhases(ph)
	// Each round's daemon lived for its own phase only, so the engine's
	// busy share is over the mean phase.
	r.layersServer(make([]server.Stats, len(stats)), stats, busy/openRounds)
	r.layers["server.first_touch_p50_ms"] = median(first)
	r.layers["server.repeat_p50_ms"] = median(repeat)
	r.layers["server.inproc_p50_us"] = 1e3 * median(loMS)
	r.layers["loadgen.late_p95_ms"] = percentile(sortedCopy(lateMS), 0.95)
	r.layers["loadgen.lo_p50_ms"] = percentile(sortedCopy(loMS), 0.50)
	r.layers["loadgen.lo_p95_ms"] = percentile(sortedCopy(loMS), 0.95)
	r.layers["loadgen.hi_within_limit_share"] = ratio(float64(within), float64(sent))
	r.probeSched(p, r.meanBatch(population))
	r.probeSolvers(p, population)
	return nil
}

// openResult is one open-loop phase against one fresh daemon.
type openResult struct {
	sum               openSummary
	wall              time.Duration
	stats             server.Stats
	firstMS, repeatMS []float64 // latency of the first and of later arrivals for a variable
}

// openPhase starts a daemon with server.New, plays sched against it through
// in-process QueryRequest calls and stops it. A non-nil ph makes it record
// the phase's spans and the server's timings.
func (r *run) openPhase(p *program, ref reference, population []pag.NodeID, sched []arrival, ph *phases) openResult {
	srv := server.New(p.g, serverConfig(p))
	start := time.Now()
	samples := openLoop{MaxInflight: openMaxInflight}.run(sched, func(i int, a arrival, due time.Time) bool {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		ans, err := srv.QueryRequest(ctx, population[a.Item])
		done := time.Now()
		if err != nil {
			r.fail(1, err.Error())
			return false
		}
		v := ref.checkResult(ans.Result)
		r.count(v)
		if ph != nil {
			r.servedInProcess(ph, due, done, ans.Timings)
		}
		return v != wrong
	})
	out := openResult{wall: time.Since(start), stats: srv.Stats()}
	srv.Close()
	out.sum = summarise(samples, openLimit)
	shed := 0
	seen := make(map[int]bool)
	for _, s := range samples {
		ms := float64(s.Latency) / float64(time.Millisecond)
		switch {
		case s.Outcome == outcomeShed:
			shed++
		case s.Outcome == outcomeError:
		case seen[s.Item]:
			out.repeatMS = append(out.repeatMS, ms)
		default:
			out.firstMS = append(out.firstMS, ms)
		}
		seen[s.Item] = true
	}
	if shed > 0 {
		r.fail(shed, fmt.Sprintf("%d arrivals shed at the in-flight limit of %d", shed, openMaxInflight))
	}
	return out
}

// servedInProcess books one traced in-process request. Its latency runs
// from the due time, so what precedes the server's own account is the
// generator's lateness.
func (r *run) servedInProcess(ph *phases, due, done time.Time, t server.Timings) {
	root := r.rec.add("client.request", 0, t.Seq, due, done)
	at := done.Add(-time.Duration(t.TotalNS))
	r.rec.add("loadgen.late", root, t.Seq, due, at)
	r.phaseSpans(root, t.Seq, at, t)
	ph.mu.Lock()
	ph.query(t)
	ph.latMS = append(ph.latMS, float64(done.Sub(due))/float64(time.Millisecond))
	ph.mu.Unlock()
}
