package main

import (
	"runtime"
	"time"
)

// Everything a result depends on besides the code under test is frozen
// here and in BENCHMARK.json; README.md gives the measurements behind the
// sizes. The program under test runs with its shipped defaults: kernel off,
// 2 ms batch window, budget 75,000.
const (
	// runSeconds is how long the driver lets a workload measure; it is the
	// run_seconds of BENCHMARK.json.
	runSeconds = 12

	budget     = 75000
	maxThreads = 4
	// A run sets up at least setupReps times, and until set-up has taken a
	// second in all or happened maxSetupReps times; setup_s is the median.
	setupReps    = 3
	maxSetupReps = 50
	// minPasses is the fewest timed passes a batch workload makes, however
	// short the run.
	minPasses = 3
	// servePasses splits a closed-loop run's time into equal passes.
	servePasses = 5
	// openRounds splits an open-loop run's time into rounds, each against a
	// fresh daemon.
	openRounds = 3

	openRateLo      = 100.0 // arrivals per second, traced runs only
	openRateHi      = 600.0
	openMaxInflight = 64
	openLimit       = 25 * time.Millisecond
	zipfS           = 1.1

	shardCount   = 2
	shardedChunk = 16

	// probeBox bounds each sequential layer probe of a traced run.
	probeBox = time.Second
)

// threads is the worker count every workload hands to the engine.
func threads() int { return min(runtime.NumCPU(), maxThreads) }

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.10},
	{"p50_ms", "ms", "lower", 0.10},
	{"p95_ms", "ms", "lower", 0.15},
	{"answered_share", "share", "higher", 0.015},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer is what a traced run reports, named after the module that does
// the work. A layer the workload never builds reads 0.
var perLayer = []metricDef{
	{Name: "javagen.generate_s", Unit: "s", Better: "lower"},
	{Name: "frontend.lower_s", Unit: "s", Better: "lower"},
	{Name: "pag.nodes", Unit: "count", Better: "lower"},
	{Name: "pag.edges", Unit: "count", Better: "lower"},
	{Name: "pag.queries", Unit: "count", Better: "higher"},

	{Name: "cfl.steps_walked", Unit: "count", Better: "lower"},
	{Name: "cfl.aborted_share", Unit: "share", Better: "lower"},
	{Name: "cfl.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "cfl.seq_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cfl.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "cfl.query_us_p50", Unit: "us", Better: "lower"},
	{Name: "cfl.query_us_p95", Unit: "us", Better: "lower"},

	{Name: "kernel.build_s", Unit: "s", Better: "lower"},
	{Name: "kernel.seq_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "kernel.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "kernel.vs_cfl_ratio", Unit: "ratio", Better: "higher"},

	{Name: "share.jumps", Unit: "count", Better: "higher"},
	{Name: "share.hit_rate", Unit: "share", Better: "higher"},
	{Name: "share.steps_saved_share", Unit: "share", Better: "higher"},
	{Name: "share.early_terminations", Unit: "count", Better: "higher"},
	{Name: "share.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "share.put_ns", Unit: "ns", Better: "lower"},

	{Name: "ptcache.hit_rate", Unit: "share", Better: "higher"},
	{Name: "ptcache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "ptcache.put_ns", Unit: "ns", Better: "lower"},

	{Name: "sched.schedule_s", Unit: "s", Better: "lower"},
	{Name: "sched.groups", Unit: "count", Better: "lower"},
	{Name: "sched.avg_group_size", Unit: "count", Better: "higher"},

	{Name: "engine.run_s", Unit: "s", Better: "lower"},
	{Name: "engine.max_worker_walked_share", Unit: "share", Better: "lower"},
	{Name: "engine.wall_speedup", Unit: "ratio", Better: "higher"},

	{Name: "server.admit_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.solve_us", Unit: "us", Better: "lower"},
	{Name: "server.fanout_us", Unit: "us", Better: "lower"},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "server.coalesced_share", Unit: "share", Better: "higher"},
	{Name: "server.rejected_share", Unit: "share", Better: "lower"},
	{Name: "server.engine_busy_share", Unit: "share", Better: "lower"},
	{Name: "server.inproc_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.first_touch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.repeat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.restore_s", Unit: "s", Better: "lower"},

	{Name: "http.roundtrip_overhead_us", Unit: "us", Better: "lower"},
	{Name: "http.marshal_us", Unit: "us", Better: "lower"},
	{Name: "http.reply_bytes", Unit: "count", Better: "lower"},

	{Name: "snapshot.write_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.read_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "count", Better: "lower"},

	{Name: "cluster.buildplan_s", Unit: "s", Better: "lower"},
	{Name: "cluster.filter_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "cluster.heaviest_shard_query_share", Unit: "share", Better: "lower"},
	{Name: "router.hop_overhead_us", Unit: "us", Better: "lower"},
	{Name: "router.subrequests_per_request", Unit: "count", Better: "lower"},

	{Name: "obs.attached_qps_loss_share", Unit: "share", Better: "lower"},

	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lo_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lo_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.hi_within_limit_share", Unit: "share", Better: "higher"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
}

// workloadSpec names one workload: the generated program it runs on and the
// function that drives it.
type workloadSpec struct {
	Name   string
	Why    string
	Preset string
	Scale  float64
	run    func(*run) error
}

var workloads = []workloadSpec{
	{"batch-seq-lib", "large library-heavy graph, few queries, engine.Seq on one thread: only cfl's step loop runs, so solver and layout changes show here and nothing else does",
		"_209_db", 0.3, runBatchSeq},
	{"batch-dq-app", "small app-heavy graph, many queries, engine.DQ with a fresh jmp store per pass: sched ordering, share put/lookup and the worker pool do the work",
		"avrora", 0.2, runBatchDQ},
	{"serve-warm", "snapshot-restored daemon over loopback HTTP, one closed-loop client, one variable per request: cfl walks almost nothing, so the batch window, the per-batch schedule and the codec are the cost",
		"avrora", 0.05, runServeWarm},
	{"serve-mixed-open", "fresh daemon per round, in-process open loop, Poisson arrivals at 600/s, Zipf(1.1) variables: first-touch solves beside repeats, queues can grow",
		"avrora", 0.05, runServeOpen},
	{"serve-sharded", "two snapshot-restored shards behind the router on loopback, closed-loop clients, 16 variables per request straddling shards: prices split, fanout, merge and the second hop",
		"avrora", 0.05, runServeSharded},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
