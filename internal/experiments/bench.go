package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"parcfl/internal/engine"
)

// BenchSchema identifies the layout of one bench report; bump on breaking
// changes so downstream tooling can reject files it does not understand.
const BenchSchema = "parcfl-bench/v1"

// benchDefaults are the presets the bench experiment runs when none are
// named: the three smallest members of the suite, so the full 3 benchmarks
// x 4 modes grid stays cheap enough for CI.
var benchDefaults = []string{"_200_check", "_201_compress", "_209_db"}

// BenchRun is one (benchmark, mode) cell of the bench grid.
type BenchRun struct {
	Bench   string `json:"bench"`
	Mode    string `json:"mode"`
	Threads int    `json:"threads"`

	WallNS int64 `json:"wall_ns"`

	Queries           int `json:"queries"`
	Completed         int `json:"completed"`
	Aborted           int `json:"aborted"`
	EarlyTerminations int `json:"early_terminations"`

	TotalSteps  int64 `json:"total_steps"`
	StepsWalked int64 `json:"steps_walked"`
	StepsSaved  int64 `json:"steps_saved"`
	JumpsTaken  int64 `json:"jumps_taken"`

	// ModeledSpeedup is sequential walked steps over this run's heaviest
	// worker (hardware-independent); WallSpeedup is sequential wall time
	// over this run's wall time (host-bound). Both are 1 for the Seq row.
	ModeledSpeedup float64 `json:"modeled_speedup"`
	WallSpeedup    float64 `json:"wall_speedup"`
	RS             float64 `json:"r_s"`

	// Share counters are zero for Seq/Naive (no jmp store).
	ShareFinished   int64   `json:"share_finished"`
	ShareUnfinished int64   `json:"share_unfinished"`
	ShareLookups    int64   `json:"share_lookups"`
	ShareHits       int64   `json:"share_hits"`
	ShareHitRate    float64 `json:"share_hit_rate"`

	// Cache counters are zero unless the run used the result cache.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Schedule shape (DQ only; zero otherwise).
	NumGroups    int     `json:"num_groups"`
	AvgGroupSize float64 `json:"avg_group_size"`
}

// BenchReport is one grid of bench runs: the BENCH_runs.json artifact.
type BenchReport struct {
	Schema    string  `json:"schema"`
	Generated string  `json:"generated"` // RFC 3339
	Host      string  `json:"host"`      // GOOS/GOARCH, core count
	Scale     float64 `json:"scale"`
	Budget    int     `json:"budget"`
	Threads   int     `json:"threads"`
	// GoMaxProcs and NumCPU pin down the parallelism the host actually
	// offered: when Threads > NumCPU the workers time-share cores and
	// wall_speedup systematically underestimates parallel scaling (the
	// modeled_speedup column is the hardware-independent number).
	GoMaxProcs int `json:"go_max_procs"`
	NumCPU     int `json:"num_cpu"`

	// GitRev is the source revision the binary was built from, when known.
	GitRev string `json:"git_rev,omitempty"`

	Runs []BenchRun `json:"runs"`
}

// benchRunFrom flattens engine stats into one grid cell.
func benchRunFrom(bench string, st engine.Stats, seq engine.Stats) BenchRun {
	r := BenchRun{
		Bench:   bench,
		Mode:    st.Mode.String(),
		Threads: st.Threads,

		WallNS: st.Wall.Nanoseconds(),

		Queries:           st.Queries,
		Completed:         st.Completed,
		Aborted:           st.Aborted,
		EarlyTerminations: st.EarlyTerminations,

		TotalSteps:  st.TotalSteps,
		StepsWalked: st.StepsWalked(),
		StepsSaved:  st.StepsSaved,
		JumpsTaken:  st.JumpsTaken,

		RS: st.RS(),

		ShareFinished:   st.Share.FinishedAdded,
		ShareUnfinished: st.Share.UnfinishedAdded,
		ShareLookups:    st.Share.Lookups,
		ShareHits:       st.Share.LookupHits,
		ShareHitRate:    st.Share.HitRate(),

		CacheHits:    st.Cache.Hits,
		CacheMisses:  st.Cache.Misses,
		CacheHitRate: st.Cache.HitRate(),

		NumGroups:    st.NumGroups,
		AvgGroupSize: st.AvgGroupSize,
	}
	r.ModeledSpeedup = st.ModeledSpeedup(seq.StepsWalked())
	if st.Wall > 0 {
		r.WallSpeedup = float64(seq.Wall) / float64(st.Wall)
	}
	return r
}

// BenchGrid runs every benchmark x mode cell and returns the report. The
// sequential row of each benchmark is the speedup baseline for the other
// three. Exposed separately from Bench so tests can exercise the grid
// without touching the filesystem.
func BenchGrid(opts Options) (*BenchReport, error) {
	opts = opts.withDefaults()
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = benchDefaults
	}
	presets, err := opts.presets()
	if err != nil {
		return nil, err
	}

	rep := &BenchReport{
		Schema:     BenchSchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Host:       fmt.Sprintf("%s/%s %d cores", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Scale:      opts.Scale,
		Budget:     opts.Budget,
		Threads:    opts.Threads,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     opts.GitRev,
	}
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return nil, err
		}
		_, seq := b.runMode(engine.Seq, 1, opts.Budget, 0, 0)
		rep.Runs = append(rep.Runs, benchRunFrom(pr.Name, seq, seq))
		for _, mode := range []engine.Mode{engine.Naive, engine.D, engine.DQ} {
			_, st := b.runMode(mode, opts.Threads, opts.Budget, 0, 0)
			rep.Runs = append(rep.Runs, benchRunFrom(pr.Name, st, seq))
		}
		// One extra DQ run with the result cache on, so the report
		// includes a meaningful cache hit-rate signal.
		_, cached := engine.Run(b.Lowered.Graph, b.Queries, engine.Config{
			Mode: engine.DQ, Threads: opts.Threads, Budget: opts.Budget,
			TypeLevels: b.Lowered.TypeLevels, ResultCache: true,
		})
		cr := benchRunFrom(pr.Name, cached, seq)
		cr.Mode = cached.Mode.String() + "+cache"
		rep.Runs = append(rep.Runs, cr)
	}
	return rep, nil
}

// BenchTrajectory runs the bench grid, prints a summary table, and — when
// Options.JSONPath is set — writes the full report there as indented JSON
// (the BENCH_runs.json artifact). Registered as the "bench" experiment.
func BenchTrajectory(opts Options) error {
	opts = opts.withDefaults()
	rep, err := BenchGrid(opts)
	if err != nil {
		return err
	}
	w := opts.Out
	fmt.Fprintf(w, "Bench grid: %d runs (scale=%.4g, B=%d, %d threads)\n",
		len(rep.Runs), rep.Scale, rep.Budget, rep.Threads)
	if rep.Threads > rep.NumCPU {
		fmt.Fprintf(w, "warning: %d threads on %d cores — workers are time-sharing, so wallX underestimates parallel scaling; read the modeled column instead\n",
			rep.Threads, rep.NumCPU)
	}
	fmt.Fprintf(w, "%-14s %-16s %10s %8s %8s %8s %8s %9s %9s\n",
		"Benchmark", "Mode", "wall", "queries", "aborted", "modeled", "wallX", "shareHit", "cacheHit")
	for _, r := range rep.Runs {
		fmt.Fprintf(w, "%-14s %-16s %10s %8d %8d %8.2f %8.2f %8.1f%% %8.1f%%\n",
			r.Bench, r.Mode, time.Duration(r.WallNS).Round(time.Microsecond),
			r.Queries, r.Aborted, r.ModeledSpeedup, r.WallSpeedup,
			100*r.ShareHitRate, 100*r.CacheHitRate)
	}
	if opts.JSONPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.JSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (%s, %d runs)\n", opts.JSONPath, rep.Schema, len(rep.Runs))
	}
	return nil
}
