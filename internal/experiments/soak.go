package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"parcfl/internal/server"
)

// Open-loop soak harness. A closed-loop client waits for each reply before
// sending the next, so a slow server slows its clients down and hides
// queueing. A soak instead fires requests at a fixed Poisson rate
// regardless of how the server is doing — the open-loop shape that exposes
// queue growth, overload shedding and tail latency inflation — and reports
// a machine-readable summary (cmd/parcflload, make soak-smoke).

// SoakSchema identifies the layout of one soak report; bump on breaking
// changes.
const SoakSchema = "parcfl-soak/v1"

// SoakOptions configures one open-loop run.
type SoakOptions struct {
	// Rate is the target arrival rate in requests/second (Poisson spaced;
	// 0 means 100).
	Rate float64
	// Duration is how long arrivals keep coming (0 means 1s). In-flight
	// requests are drained after the last arrival.
	Duration time.Duration
	// MaxInflight bounds concurrently outstanding requests; an arrival that
	// would exceed it is shed client-side and counted, preserving the open
	// loop without unbounded goroutine growth (0 means 64).
	MaxInflight int
	// Seed makes the arrival process and variable choice reproducible.
	Seed int64
	// Timeout is the per-request deadline (0 means 5s).
	Timeout time.Duration
	// Retry re-sends a request once after an overload rejection, honouring
	// the server's Retry-After hint (capped at 100ms so a soak never parks).
	Retry bool
	// RIDPrefix prefixes the per-request IDs RunSoak mints ("" means
	// "soak"); the full ID is <prefix>-<seed>-<arrival#>.
	RIDPrefix string
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Rate <= 0 {
		o.Rate = 100
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.RIDPrefix == "" {
		o.RIDPrefix = "soak"
	}
	return o
}

// SlowRequest is one of a report's top-K slowest successful requests: its
// ID (the join key against the daemon's slow-query log, /metrics exemplars
// and diagnostic-bundle trace lanes), client-observed latency, and the
// server's phase breakdown for it.
type SlowRequest struct {
	RID       string         `json:"rid"`
	LatencyNS int64          `json:"latency_ns"`
	Timings   server.Timings `json:"timings"`
}

// soakSlowestK is how many slowest requests a report retains.
const soakSlowestK = 5

// SoakPhases aggregates the server-reported per-request phase breakdown
// over every successful request: where the time went, as totals and as
// shares of the summed end-to-end time.
type SoakPhases struct {
	AdmitNS     int64 `json:"admit_ns"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
	SolveNS     int64 `json:"solve_ns"`
	FanoutNS    int64 `json:"fanout_ns"`
	MarshalNS   int64 `json:"marshal_ns,omitempty"`

	AdmitShare  float64 `json:"admit_share"`
	QueueShare  float64 `json:"queue_share"`
	SolveShare  float64 `json:"solve_share"`
	FanoutShare float64 `json:"fanout_share"`
}

// SoakReport is the machine-readable result of one open-loop run.
type SoakReport struct {
	Schema     string  `json:"schema"`
	TargetQPS  float64 `json:"target_qps"`
	DurationNS int64   `json:"duration_ns"`

	Sent       int64 `json:"sent"`
	Shed       int64 `json:"shed"`
	Succeeded  int64 `json:"succeeded"`
	Overloaded int64 `json:"overloaded"`
	Deadlined  int64 `json:"deadlined"`
	Errored    int64 `json:"errored"`
	Retried    int64 `json:"retried"`

	// QPS is the achieved success throughput; the rates are fractions of
	// Sent.
	QPS          float64 `json:"qps"`
	OverloadRate float64 `json:"overload_rate"`
	RetryRate    float64 `json:"retry_rate"`

	// Client-observed latency of successful requests.
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`

	Phases SoakPhases `json:"phases"`

	// Slowest holds the top-K slowest successful requests (slowest first)
	// with their request IDs and per-phase attribution — the starting point
	// for joining a bad tail to daemon-side evidence.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// noteSlow inserts sr into the top-K slowest list (slowest first). Called
// under RunSoak's mutex.
func (r *SoakReport) noteSlow(sr SlowRequest) {
	i := sort.Search(len(r.Slowest), func(i int) bool {
		return r.Slowest[i].LatencyNS < sr.LatencyNS
	})
	if i >= soakSlowestK {
		return
	}
	r.Slowest = append(r.Slowest, SlowRequest{})
	copy(r.Slowest[i+1:], r.Slowest[i:])
	r.Slowest[i] = sr
	if len(r.Slowest) > soakSlowestK {
		r.Slowest = r.Slowest[:soakSlowestK]
	}
}

// RunSoak fires Poisson-spaced requests at do for the configured duration
// and aggregates the outcomes. numVars is the size of the variable universe;
// each arrival carries a uniformly chosen index in [0, numVars) and a
// RunSoak-minted request ID (<RIDPrefix>-<seed>-<arrival#>) that do should
// propagate to the server, so the report's slowest-request IDs resolve
// daemon-side. do performs one request and returns the server's phase
// timings (zero value when the transport does not carry them) — RunSoak
// classifies its error into success / overload / deadline / other.
func RunSoak(opts SoakOptions, numVars int, do func(ctx context.Context, varIdx int, rid string) (server.Timings, error)) SoakReport {
	opts = opts.withDefaults()
	rep := SoakReport{
		Schema:    SoakSchema,
		TargetQPS: opts.Rate,
	}
	if numVars <= 0 {
		return rep
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	sem := make(chan struct{}, opts.MaxInflight)
	var mu sync.Mutex
	var latencies []int64
	var wg sync.WaitGroup

	fire := func(idx int, rid string) {
		defer wg.Done()
		defer func() { <-sem }()
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		defer cancel()
		t0 := time.Now()
		tm, err := do(ctx, idx, rid)
		if err != nil && opts.Retry && errors.Is(err, server.ErrOverloaded) {
			delay := 10 * time.Millisecond
			var oe *server.OverloadedError
			if errors.As(err, &oe) && oe.RetryAfter > 0 {
				delay = oe.RetryAfter
			}
			if delay > 100*time.Millisecond {
				delay = 100 * time.Millisecond
			}
			select {
			case <-time.After(delay):
				mu.Lock()
				rep.Retried++
				mu.Unlock()
				tm, err = do(ctx, idx, rid)
			case <-ctx.Done():
			}
		}
		lat := time.Since(t0).Nanoseconds()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			rep.Succeeded++
			latencies = append(latencies, lat)
			rep.Phases.AdmitNS += tm.AdmitNS
			rep.Phases.QueueWaitNS += tm.QueueWaitNS
			rep.Phases.SolveNS += tm.SolveNS
			rep.Phases.FanoutNS += tm.FanoutNS
			rep.Phases.MarshalNS += tm.MarshalNS
			rep.noteSlow(SlowRequest{RID: rid, LatencyNS: lat, Timings: tm})
		case errors.Is(err, server.ErrOverloaded), errors.Is(err, server.ErrClosed):
			rep.Overloaded++
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			rep.Deadlined++
		default:
			rep.Errored++
		}
	}

	// Absolute-time pacing: the next arrival is start plus the accumulated
	// exponential gaps, so a slow iteration never shifts the whole schedule
	// (that would close the loop).
	start := time.Now()
	next := time.Duration(0)
	for {
		next += time.Duration(rng.ExpFloat64() / opts.Rate * float64(time.Second))
		if next > opts.Duration {
			break
		}
		if d := time.Until(start.Add(next)); d > 0 {
			time.Sleep(d)
		}
		idx := rng.Intn(numVars)
		select {
		case sem <- struct{}{}:
			rep.Sent++
			rid := fmt.Sprintf("%s-%d-%d", opts.RIDPrefix, opts.Seed, rep.Sent)
			wg.Add(1)
			go fire(idx, rid)
		default:
			rep.Shed++
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.DurationNS = elapsed.Nanoseconds()

	if rep.Sent > 0 {
		rep.OverloadRate = float64(rep.Overloaded) / float64(rep.Sent)
		rep.RetryRate = float64(rep.Retried) / float64(rep.Sent)
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Succeeded) / elapsed.Seconds()
	}
	if n := len(latencies); n > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum int64
		for _, l := range latencies {
			sum += l
		}
		rep.MeanNS = sum / int64(n)
		pct := func(p float64) int64 { return latencies[int(p*float64(n-1))] }
		rep.P50NS = pct(0.50)
		rep.P99NS = pct(0.99)
		rep.P999NS = pct(0.999)
	}
	if tot := rep.Phases.AdmitNS + rep.Phases.QueueWaitNS + rep.Phases.SolveNS + rep.Phases.FanoutNS; tot > 0 {
		rep.Phases.AdmitShare = float64(rep.Phases.AdmitNS) / float64(tot)
		rep.Phases.QueueShare = float64(rep.Phases.QueueWaitNS) / float64(tot)
		rep.Phases.SolveShare = float64(rep.Phases.SolveNS) / float64(tot)
		rep.Phases.FanoutShare = float64(rep.Phases.FanoutNS) / float64(tot)
	}
	return rep
}
