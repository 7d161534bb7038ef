// Package router is the stateless front of a sharded parcfl cluster: it
// holds no graph and no solver — only a shard plan and the addresses of the
// replicas — so any number of interchangeable router processes can sit in
// front of the same shard set.
//
// A query batch is split by the plan into per-shard sub-batches (all
// variables one shard owns travel as one coalesced subrequest, so the
// shard's micro-batcher still sees a real batch), fanned out with bounded
// concurrency, per-shard deadlines and overload retries, and merged back
// positionally. Request identity propagates whole: the client's
// X-Parcfl-Request-Id and W3C traceparent are forwarded to every shard, so
// one routed request renders as router + shard lanes in a single Perfetto
// trace.
//
// Failure degrades by policy, not by accident: with every shard down the
// router sheds with 503 + Retry-After; with some shards down a request that
// set allow_partial gets the reachable answers (Partial/Missing marked),
// and everyone else gets the 503.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parcfl/internal/cluster"
	"parcfl/internal/obs"
	"parcfl/internal/server"
)

// ClusterSchema identifies the /v1/cluster rollup payload.
const ClusterSchema = "parcfl-cluster/v1"

// Config wires a Router.
type Config struct {
	// Plan maps query variables to shards; required.
	Plan *cluster.Plan
	// Shards are the replica base URLs, indexed by shard
	// (len must equal Plan.NumShards).
	Shards []string
	// MaxFanout bounds concurrent per-shard subrequests per routed request
	// (0 means all shards at once).
	MaxFanout int
	// ShardTimeout bounds each per-shard subrequest (0 means 10s).
	ShardTimeout time.Duration
	// RetryAttempts is the per-shard overload retry budget, including the
	// first try (0 means 3; negative disables retries).
	RetryAttempts int
	// HealthInterval is the background shard probe period (0 means 2s;
	// negative disables the prober — request outcomes still update health).
	HealthInterval time.Duration
	// Obs receives router metrics and spans (nil disables). The router
	// registers its per-shard rollup series on the sink's /metrics via
	// SetPromExtra.
	Obs *obs.Sink
	// HTTPClient is used for all shard traffic (nil means a dedicated
	// client with sane connection pooling).
	HTTPClient *http.Client
}

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return 10 * time.Second
	}
	return c.ShardTimeout
}

func (c Config) retryAttempts() int {
	if c.RetryAttempts == 0 {
		return 3
	}
	if c.RetryAttempts < 0 {
		return 1
	}
	return c.RetryAttempts
}

// shardState is the router's view of one replica.
type shardState struct {
	addr   string
	client *server.Client // retry-wrapped

	up       atomic.Bool
	lastErr  atomic.Pointer[string]
	requests atomic.Int64 // subrequests issued to this shard
	errors   atomic.Int64 // subrequests failed after retries
	lat      obs.LocalHist
}

func (ss *shardState) setHealth(up bool, err error) {
	ss.up.Store(up)
	if err != nil {
		msg := err.Error()
		ss.lastErr.Store(&msg)
	} else if up {
		ss.lastErr.Store(nil)
	}
}

// Router routes queries across the shard set. Create with New; all methods
// are safe for concurrent use.
type Router struct {
	cfg    Config
	plan   *cluster.Plan
	shards []*shardState
	sink   *obs.Sink
	hc     *http.Client
	seq    atomic.Int64 // routed-request sequence (trace lane identity)
	start  time.Time

	stopHealth chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once
}

// New builds a router over cfg and starts its health prober. The per-shard
// rollup series are registered on cfg.Obs's /metrics exposition.
func New(cfg Config) (*Router, error) {
	if cfg.Plan == nil {
		return nil, errors.New("router: nil plan")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Shards) != cfg.Plan.NumShards {
		return nil, fmt.Errorf("router: plan has %d shards, %d addresses given",
			cfg.Plan.NumShards, len(cfg.Shards))
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	rt := &Router{
		cfg: cfg, plan: cfg.Plan, sink: cfg.Obs, hc: hc, start: time.Now(),
		stopHealth: make(chan struct{}), healthDone: make(chan struct{}),
	}
	retry := server.RetryPolicy{MaxAttempts: cfg.retryAttempts(), BaseDelay: 25 * time.Millisecond}
	for i, addr := range cfg.Shards {
		if addr == "" {
			return nil, fmt.Errorf("router: empty address for shard %d", i)
		}
		ss := &shardState{addr: addr, client: server.NewClient(addr, hc).WithRetry(retry)}
		ss.up.Store(true) // optimistic until the first probe or request says otherwise
		rt.shards = append(rt.shards, ss)
	}
	rt.sink.SetGauge(obs.GaugeClusterShards, int64(len(rt.shards)))
	rt.sink.SetGauge(obs.GaugeClusterShardsUp, int64(len(rt.shards)))
	rt.sink.SetPromExtra(rt.writeShardMetrics)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health prober. In-flight requests finish normally.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.stopHealth)
		<-rt.healthDone
	})
}

// Plan returns the router's shard plan.
func (rt *Router) Plan() *cluster.Plan { return rt.plan }

// healthLoop probes every shard's /v1/stats on the configured period.
// Request outcomes update health too; the prober exists so a dead shard is
// noticed (and a recovered one readmitted) without waiting for live
// traffic to hit it.
func (rt *Router) healthLoop() {
	defer close(rt.healthDone)
	interval := rt.cfg.HealthInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	if interval < 0 {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopHealth:
			return
		case <-tick.C:
			rt.probeAll(interval)
		}
	}
}

func (rt *Router) probeAll(interval time.Duration) {
	var wg sync.WaitGroup
	for _, ss := range rt.shards {
		wg.Add(1)
		go func(ss *shardState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			defer cancel()
			_, err := ss.client.Stats(ctx)
			ss.setHealth(err == nil, err)
		}(ss)
	}
	wg.Wait()
	rt.publishShardsUp()
}

func (rt *Router) publishShardsUp() {
	up := int64(0)
	for _, ss := range rt.shards {
		if ss.up.Load() {
			up++
		}
	}
	rt.sink.SetGauge(obs.GaugeClusterShardsUp, up)
}

// shardCall is one per-shard subrequest's outcome.
type shardCall struct {
	shard     int
	positions []int // indices into the routed request's name list
	reply     server.QueryReply
	err       error
}

// route answers one query batch: split by plan, fan out, merge. names must
// be non-empty and fully resolvable (the caller 404s unknowns first); seq
// is the routed-request sequence the caller minted with NextSeq.
func (rt *Router) route(ctx context.Context, seq int64, rid, traceparent string, names []string, timeout time.Duration, allowPartial bool) (server.QueryReply, int, error) {
	startNS := rt.sink.SpanStart()

	// Group positions by owning shard; iteration order is made deterministic
	// so retries and traces are reproducible.
	byShard := make(map[int][]int)
	for i, name := range names {
		s, ok := rt.plan.ShardOfVar(name)
		if !ok {
			return server.QueryReply{}, 0, fmt.Errorf("router: unresolvable variable %q", name)
		}
		byShard[s] = append(byShard[s], i)
	}
	order := make([]int, 0, len(byShard))
	for s := range byShard {
		order = append(order, s)
	}
	sort.Ints(order)

	rt.sink.Add(obs.CtrClusterRequests, 1)
	rt.sink.Add(obs.CtrClusterFanouts, int64(len(order)))
	rt.sink.SetGauge(obs.GaugeClusterFanoutWidth, int64(len(order)))

	// Bounded fanout: same-shard variables already coalesced into one
	// subrequest; at most MaxFanout subrequests run concurrently.
	sem := make(chan struct{}, maxFanout(rt.cfg.MaxFanout, len(order)))
	calls := make([]shardCall, len(order))
	var wg sync.WaitGroup
	for ci, s := range order {
		wg.Add(1)
		go func(ci, s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ss := rt.shards[s]
			positions := byShard[s]
			sub := make([]string, len(positions))
			for i, p := range positions {
				sub[i] = names[p]
			}
			callCtx, cancel := context.WithTimeout(ctx, rt.cfg.shardTimeout())
			defer cancel()
			callStartNS := rt.sink.SpanStart()
			callStart := time.Now()
			ss.requests.Add(1)
			reply, err := ss.client.QueryTraced(callCtx, rid, traceparent, sub, timeout)
			ss.lat.Observe(time.Since(callStart).Nanoseconds())
			outcome := int64(0)
			if err != nil {
				ss.errors.Add(1)
				rt.sink.Add(obs.CtrClusterShardErrors, 1)
				outcome = 3
				if errors.Is(err, context.DeadlineExceeded) {
					outcome = 2
				} else if errors.Is(err, server.ErrOverloaded) {
					outcome = 1
				}
			}
			// One fanout span per subrequest on the routed request's lane:
			// the router-side cost of shard s, next to the shard's own serve
			// span when both trace files are merged by rid.
			rt.sink.Span(obs.SpanFanout, obs.NoWorker, callStartNS, seq, int64(s), outcome)
			ss.setHealth(err == nil || outcome == 1, err) // overload is alive, just busy
			calls[ci] = shardCall{shard: s, positions: byShard[s], reply: reply, err: err}
		}(ci, s)
	}
	wg.Wait()
	rt.publishShardsUp()

	// Merge positionally; failed shards leave Failed placeholders.
	out := server.QueryReply{Results: make([]server.VarResult, len(names))}
	failed := 0
	for _, call := range calls {
		if call.err != nil {
			failed++
			for _, p := range call.positions {
				out.Results[p] = server.VarResult{Var: names[p], Failed: true}
				out.Missing = append(out.Missing, names[p])
			}
			continue
		}
		for i, p := range call.positions {
			out.Results[p] = call.reply.Results[i]
		}
	}
	rt.sink.Span(obs.SpanServe, obs.NoWorker, startNS, seq, seq, serveOutcome(failed, len(order)))
	switch {
	case failed == 0:
	case failed == len(order) || !allowPartial:
		// Nothing useful to return, or the client wants all-or-nothing.
		err := calls[firstFailed(calls)].err
		return out, failed, fmt.Errorf("router: %d/%d shards failed: %w", failed, len(order), err)
	default:
		sort.Strings(out.Missing)
		out.Partial = true
		rt.sink.Add(obs.CtrClusterPartial, 1)
	}
	return out, failed, nil
}

func maxFanout(cfgMax, width int) int {
	if cfgMax > 0 && cfgMax < width {
		return cfgMax
	}
	if width < 1 {
		return 1
	}
	return width
}

func serveOutcome(failed, total int) int64 {
	if failed == 0 {
		return 0
	}
	if failed == total {
		return 3
	}
	return 1
}

func firstFailed(calls []shardCall) int {
	for i, c := range calls {
		if c.err != nil {
			return i
		}
	}
	return 0
}

// ShardStatus is one replica's row in the /v1/cluster rollup.
type ShardStatus struct {
	Index     int    `json:"index"`
	Addr      string `json:"addr"`
	Up        bool   `json:"up"`
	LastError string `json:"last_error,omitempty"`
	// Nodes is the node count the plan assigns to this shard.
	Nodes int `json:"nodes"`
	// Requests/Errors count router-issued subrequests (not shard-side
	// admissions; coalescing makes those smaller).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// P50NS/P99NS summarise router-observed subrequest latency.
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
}

// ClusterStatus is the /v1/cluster payload: plan summary plus live health.
type ClusterStatus struct {
	Schema        string        `json:"schema"`
	NumShards     int           `json:"num_shards"`
	ShardsUp      int           `json:"shards_up"`
	NumNodes      int           `json:"num_nodes"`
	NumComponents int           `json:"num_components"`
	UptimeNS      int64         `json:"uptime_ns"`
	Shards        []ShardStatus `json:"shards"`
}

// Status reports the cluster rollup.
func (rt *Router) Status() ClusterStatus {
	st := ClusterStatus{
		Schema: ClusterSchema, NumShards: len(rt.shards),
		NumNodes: rt.plan.NumNodes, NumComponents: rt.plan.NumComponents,
		UptimeNS: time.Since(rt.start).Nanoseconds(),
	}
	for i, ss := range rt.shards {
		hs := ss.lat.Snapshot()
		row := ShardStatus{
			Index: i, Addr: ss.addr, Up: ss.up.Load(), Nodes: rt.plan.ShardSizes[i],
			Requests: ss.requests.Load(), Errors: ss.errors.Load(),
			P50NS: hs.Quantile(0.50), P99NS: hs.Quantile(0.99),
		}
		if msg := ss.lastErr.Load(); msg != nil {
			row.LastError = *msg
		}
		if row.Up {
			st.ShardsUp++
		}
		st.Shards = append(st.Shards, row)
	}
	return st
}

// writeShardMetrics is the sink's extra-series hook: the per-shard rollup
// as labelled families next to the enumerated parcfl_cluster_* scalars.
func (rt *Router) writeShardMetrics(w io.Writer) {
	st := rt.Status()
	pf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	pf("# HELP parcfl_cluster_shard_up Shard passes the router's health probe (by shard).\n")
	pf("# TYPE parcfl_cluster_shard_up gauge\n")
	for _, s := range st.Shards {
		up := 0
		if s.Up {
			up = 1
		}
		pf("parcfl_cluster_shard_up{shard=\"%d\"} %d\n", s.Index, up)
	}
	pf("# HELP parcfl_cluster_shard_requests_total Subrequests the router issued, by shard.\n")
	pf("# TYPE parcfl_cluster_shard_requests_total counter\n")
	for _, s := range st.Shards {
		pf("parcfl_cluster_shard_requests_total{shard=\"%d\"} %d\n", s.Index, s.Requests)
	}
	pf("# HELP parcfl_cluster_shard_errors_total Subrequests failed after retries, by shard.\n")
	pf("# TYPE parcfl_cluster_shard_errors_total counter\n")
	for _, s := range st.Shards {
		pf("parcfl_cluster_shard_errors_total{shard=\"%d\"} %d\n", s.Index, s.Errors)
	}
	pf("# HELP parcfl_cluster_shard_p99_ns Router-observed p99 subrequest latency, by shard.\n")
	pf("# TYPE parcfl_cluster_shard_p99_ns gauge\n")
	for _, s := range st.Shards {
		pf("parcfl_cluster_shard_p99_ns{shard=\"%d\"} %d\n", s.Index, s.P99NS)
	}
	pf("# HELP parcfl_cluster_shard_p50_ns Router-observed median subrequest latency, by shard.\n")
	pf("# TYPE parcfl_cluster_shard_p50_ns gauge\n")
	for _, s := range st.Shards {
		pf("parcfl_cluster_shard_p50_ns{shard=\"%d\"} %d\n", s.Index, s.P50NS)
	}
}

// firstUp returns a healthy shard to proxy shard-agnostic reads to
// (falling back to shard 0 when everything looks down — the proxied call
// will report the real error).
func (rt *Router) firstUp() *shardState {
	for _, ss := range rt.shards {
		if ss.up.Load() {
			return ss
		}
	}
	return rt.shards[0]
}

// SumStats fetches every reachable shard's /v1/stats and sums the scalar
// fields into one cluster-wide view. Share and cache counters roll up too,
// but the shard stores are not disjoint — one key can live on two shards —
// so summed insert counts count such a key once per shard and can exceed
// the distinct entries cluster-wide; lookup, hit and step counters sum
// exactly. UptimeNS reports the router's own uptime.
func (rt *Router) SumStats(ctx context.Context) (server.Stats, error) {
	var out server.Stats
	var firstErr error
	reached := 0
	for _, ss := range rt.shards {
		st, err := ss.client.Stats(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reached++
		out.Requests += st.Requests
		out.Coalesced += st.Coalesced
		out.Rejected += st.Rejected
		out.Timeouts += st.Timeouts
		out.Batches += st.Batches
		out.Queries += st.Queries
		out.Completed += st.Completed
		out.Aborted += st.Aborted
		out.TotalSteps += st.TotalSteps
		out.StepsSaved += st.StepsSaved
		out.JumpsTaken += st.JumpsTaken
		out.EngineNS += st.EngineNS
		out.Share.FinishedAdded += st.Share.FinishedAdded
		out.Share.UnfinishedAdded += st.Share.UnfinishedAdded
		out.Share.FinishedSuppressed += st.Share.FinishedSuppressed
		out.Share.UnfinishedSuppressed += st.Share.UnfinishedSuppressed
		out.Share.InsertLost += st.Share.InsertLost
		out.Share.Lookups += st.Share.Lookups
		out.Share.LookupHits += st.Share.LookupHits
		out.Cache.Hits += st.Cache.Hits
		out.Cache.Misses += st.Cache.Misses
		out.Cache.Published += st.Cache.Published
		out.Cache.Entries += st.Cache.Entries
		if st.StoreEpoch > out.StoreEpoch {
			out.StoreEpoch = st.StoreEpoch
		}
	}
	if reached == 0 {
		return server.Stats{}, fmt.Errorf("router: no shard reachable: %w", firstErr)
	}
	out.UptimeNS = time.Since(rt.start).Nanoseconds()
	return out, nil
}

// ShardSLO fetches one shard's /debug/slo payload verbatim.
func (rt *Router) shardSLO(ctx context.Context, ss *shardState) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ss.addr+"/debug/slo", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: shard %s: %s", ss.addr, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	return json.RawMessage(body), nil
}

// ShardSLORow is one shard's entry in the /v1/cluster/slo fanout.
type ShardSLORow struct {
	Index int             `json:"index"`
	Addr  string          `json:"addr"`
	Error string          `json:"error,omitempty"`
	SLO   json.RawMessage `json:"slo,omitempty"`
}

// SLOFanout collects every shard's /debug/slo state (per-shard burn rates
// side by side — a single hot shard shows up here long before the summed
// stats move).
func (rt *Router) SLOFanout(ctx context.Context) []ShardSLORow {
	rows := make([]ShardSLORow, len(rt.shards))
	var wg sync.WaitGroup
	for i, ss := range rt.shards {
		wg.Add(1)
		go func(i int, ss *shardState) {
			defer wg.Done()
			rows[i] = ShardSLORow{Index: i, Addr: ss.addr}
			slo, err := rt.shardSLO(ctx, ss)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			rows[i].SLO = slo
		}(i, ss)
	}
	wg.Wait()
	return rows
}

// NextSeq mints the next routed-request sequence number; its string form
// ("rtr-N") doubles as the request ID for clients that sent none, in the
// same style the daemon's "srv-N" fallback uses.
func (rt *Router) NextSeq() int64 { return rt.seq.Add(1) }

// FallbackRID renders seq as the router-minted request ID.
func FallbackRID(seq int64) string { return "rtr-" + strconv.FormatInt(seq, 10) }
