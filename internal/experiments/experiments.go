// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic benchmark suite:
//
//   - Table I  — benchmark census and data-sharing/scheduling statistics;
//   - Fig. 6   — speedups of PARCFL{naive,D,DQ} over SEQCFL;
//   - Fig. 7   — histograms of jmp edges by steps saved, with and without
//     the selective-insertion optimisation;
//   - Fig. 8   — thread-count scaling of PARCFL_DQ;
//   - Table II — comparison against whole-program Andersen analysis;
//   - the Section IV-A/IV-D2 ablation of the tau thresholds.
//
// Speedups are reported two ways. "Wall" is measured wall-clock on the host
// (meaningful only up to the host's core count). "Modeled" divides the
// sequential baseline's walked steps by the heaviest worker's walked steps —
// a hardware-independent estimate of the parallel critical path, used
// because the paper's 16-core testbed is not available (a documented
// substitution; on a 16-core host the two coincide to first order).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"parcfl/internal/andersen"
	"parcfl/internal/concurrent"
	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/pag"
	"parcfl/internal/share"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the fraction of the paper's query census to generate
	// (default 0.01, the whole suite in minutes on a laptop).
	Scale float64
	// Budget is the per-query step budget B (default 75,000, as in the
	// paper).
	Budget int
	// Threads is the maximum worker count (default 16, as in the paper).
	Threads int
	// Benchmarks restricts the suite to the named presets (default all).
	Benchmarks []string
	// Out receives the report (default os.Stdout set by the caller).
	Out io.Writer
	// JSONPath, when set, makes JSON-emitting experiments (currently only
	// "bench") write their machine-readable report to this file,
	// replacing it.
	JSONPath string
	// GitRev stamps the report with the source revision, when known.
	GitRev string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.Budget == 0 {
		o.Budget = 75000
	}
	if o.Threads <= 0 {
		o.Threads = 16
	}
	return o
}

func (o Options) presets() ([]javagen.Preset, error) {
	all := javagen.Presets()
	if len(o.Benchmarks) == 0 {
		return all, nil
	}
	var out []javagen.Preset
	for _, name := range o.Benchmarks {
		p, err := javagen.PresetByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Bench is a prepared benchmark: generated program, lowered PAG, and the
// query batch in a deterministic "as collected" order (shuffled — clients
// collect queries in arbitrary code order, not in a traversal-friendly one;
// the scheduler's job is to impose a good order).
type Bench struct {
	Preset  javagen.Preset
	Program *frontend.Program
	Lowered *frontend.Lowered
	Queries []pag.NodeID
}

// PrepareBench generates and lowers one preset at the given scale.
func PrepareBench(pr javagen.Preset, scale float64) (*Bench, error) {
	prg, err := javagen.Generate(pr.Params(scale))
	if err != nil {
		return nil, err
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		return nil, err
	}
	queries := append([]pag.NodeID(nil), lo.AppQueryVars...)
	rng := rand.New(rand.NewSource(int64(concurrent.HashBytes(concurrent.HashSeed, pr.Name+"/batch"))))
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	return &Bench{Preset: pr, Program: prg, Lowered: lo, Queries: queries}, nil
}

// runMode executes one configuration over a bench.
func (b *Bench) runMode(mode engine.Mode, threads, budget, tauF, tauU int) ([]engine.QueryResult, engine.Stats) {
	return engine.Run(b.Lowered.Graph, b.Queries, engine.Config{
		Mode:       mode,
		Threads:    threads,
		Budget:     budget,
		TauF:       tauF,
		TauU:       tauU,
		TypeLevels: b.Lowered.TypeLevels,
	})
}

// Table1 regenerates Table I: per-benchmark census plus sequential time,
// total steps, and the sharing/scheduling statistics.
func Table1(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out
	fmt.Fprintf(w, "Table I: benchmark information and statistics (scale=%.4g, B=%d, %d threads)\n", opts.Scale, opts.Budget, opts.Threads)
	fmt.Fprintf(w, "%-14s %8s %8s %8s %8s %8s %9s %8s %9s %7s %6s %6s %6s\n",
		"Benchmark", "#Classes", "#Methods", "#Nodes", "#Edges", "#Queries", "Tseq", "#Jumps", "#S(x10^6)", "R_S", "Sg", "#ETs", "R_ET")

	var sums struct {
		classes, methods, nodes, edges, queries, jumps, ets int
		tseq, s, rs, sg, ret                                float64
		retN                                                int
	}
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return err
		}
		_, seq := b.runMode(engine.Seq, 1, opts.Budget, 0, 0)
		_, d := b.runMode(engine.D, opts.Threads, opts.Budget, 0, 0)
		_, dq := b.runMode(engine.DQ, opts.Threads, opts.Budget, 0, 0)

		ret := 1.0
		if d.EarlyTerminations > 0 {
			ret = float64(dq.EarlyTerminations) / float64(d.EarlyTerminations)
			sums.ret += ret
			sums.retN++
		}
		jumps := int(dq.Share.FinishedAdded + dq.Share.UnfinishedAdded)
		classes := len(b.Program.Types)
		methods := len(b.Program.Methods)
		fmt.Fprintf(w, "%-14s %8d %8d %8d %8d %8d %8.2fs %8d %9.2f %7.2f %6.1f %6d %6.2f\n",
			pr.Name, classes, methods,
			b.Lowered.Graph.NumNodes(), b.Lowered.Graph.NumEdges(), seq.Queries,
			seq.Wall.Seconds(), jumps, float64(seq.TotalSteps)/1e6,
			dq.RS(), dq.AvgGroupSize, d.EarlyTerminations, ret)

		sums.classes += classes
		sums.methods += methods
		sums.nodes += b.Lowered.Graph.NumNodes()
		sums.edges += b.Lowered.Graph.NumEdges()
		sums.queries += seq.Queries
		sums.tseq += seq.Wall.Seconds()
		sums.jumps += jumps
		sums.s += float64(seq.TotalSteps) / 1e6
		sums.rs += dq.RS()
		sums.sg += dq.AvgGroupSize
		sums.ets += d.EarlyTerminations
	}
	n := float64(len(presets))
	avgRET := 1.0
	if sums.retN > 0 {
		avgRET = sums.ret / float64(sums.retN)
	}
	fmt.Fprintf(w, "%-14s %8d %8d %8d %8d %8d %8.2fs %8d %9.2f %7.2f %6.1f %6d %6.2f\n",
		"Average",
		int(float64(sums.classes)/n), int(float64(sums.methods)/n),
		int(float64(sums.nodes)/n), int(float64(sums.edges)/n), int(float64(sums.queries)/n),
		sums.tseq/n, int(float64(sums.jumps)/n), sums.s/n, sums.rs/n, sums.sg/n,
		int(float64(sums.ets)/n), avgRET)
	fmt.Fprintf(w, "\nPaper reference (full-size benchmarks): avg #Jumps=22023, #S=97.62x10^6, R_S=28.6, Sg=10.9, #ETs=114.0, R_ET=1.35\n")
	return nil
}

// Fig6 regenerates Fig. 6: speedups of the parallel configurations over
// SEQCFL, per benchmark and on average.
func Fig6(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out
	t := opts.Threads
	fmt.Fprintf(w, "Fig. 6: speedups over SeqCFL (scale=%.4g, B=%d)\n", opts.Scale, opts.Budget)
	fmt.Fprintf(w, "%-14s | %-31s | %-31s\n", "", "modeled (work/critical-path)", "wall-clock (this host)")
	fmt.Fprintf(w, "%-14s | %7s %7s %7s %7s | %7s %7s %7s %7s\n",
		"Benchmark", "naive1", fmt.Sprintf("naive%d", t), fmt.Sprintf("D%d", t), fmt.Sprintf("DQ%d", t),
		"naive1", fmt.Sprintf("naive%d", t), fmt.Sprintf("D%d", t), fmt.Sprintf("DQ%d", t))

	var mSums, wSums [4]float64
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return err
		}
		_, seq := b.runMode(engine.Seq, 1, opts.Budget, 0, 0)
		base := seq.StepsWalked()

		var mRow, wRow [4]float64
		configs := []struct {
			mode    engine.Mode
			threads int
		}{
			{engine.Naive, 1}, {engine.Naive, t}, {engine.D, t}, {engine.DQ, t},
		}
		for i, c := range configs {
			_, st := b.runMode(c.mode, c.threads, opts.Budget, 0, 0)
			mRow[i] = st.ModeledSpeedup(base)
			wRow[i] = float64(seq.Wall) / float64(st.Wall)
			mSums[i] += mRow[i]
			wSums[i] += wRow[i]
		}
		fmt.Fprintf(w, "%-14s | %7.1f %7.1f %7.1f %7.1f | %7.2f %7.2f %7.2f %7.2f\n",
			pr.Name, mRow[0], mRow[1], mRow[2], mRow[3], wRow[0], wRow[1], wRow[2], wRow[3])
	}
	n := float64(len(presets))
	fmt.Fprintf(w, "%-14s | %7.1f %7.1f %7.1f %7.1f | %7.2f %7.2f %7.2f %7.2f\n",
		"AVERAGE", mSums[0]/n, mSums[1]/n, mSums[2]/n, mSums[3]/n,
		wSums[0]/n, wSums[1]/n, wSums[2]/n, wSums[3]/n)
	fmt.Fprintf(w, "\nPaper reference (16 cores): naive1=1.0X, naive16=7.3X, D16=13.4X, DQ16=16.2X\n")
	fmt.Fprintf(w, "Host has %d core(s); wall-clock speedup of naive is bounded by that, so compare shapes on the modeled columns.\n", runtime.NumCPU())
	return nil
}

// Fig7 regenerates Fig. 7: histograms of jmp edges bucketed by steps saved,
// with the selective-insertion optimisation (tauF=100, tauU=10000) and
// without it (insert everything).
func Fig7(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out

	collect := func(tauF, tauU int) (share.Stats, error) {
		var agg share.Stats
		for _, pr := range presets {
			b, err := PrepareBench(pr, opts.Scale)
			if err != nil {
				return agg, err
			}
			_, st := b.runMode(engine.DQ, opts.Threads, opts.Budget, tauF, tauU)
			agg.FinishedAdded += st.Share.FinishedAdded
			agg.UnfinishedAdded += st.Share.UnfinishedAdded
			for i := 0; i < share.HistBuckets; i++ {
				agg.HistFinished[i] += st.Share.HistFinished[i]
				agg.HistUnfinished[i] += st.Share.HistUnfinished[i]
			}
		}
		return agg, nil
	}

	withOpt, err := collect(0, 0) // defaults: tauF=100 tauU=10000
	if err != nil {
		return err
	}
	noOpt, err := collect(-1, -1) // thresholds disabled
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Fig. 7: histograms of jmp edges by steps saved (aggregated over %d benchmarks, scale=%.4g)\n", len(presets), opts.Scale)
	fmt.Fprintf(w, "%8s | %12s %12s | %12s %12s\n", "bucket", "Finished", "Unfinished", "Finished_opt", "Unfinished_opt")
	for i := 0; i < share.HistBuckets; i++ {
		fmt.Fprintf(w, "2^%-6d | %12d %12d | %12d %12d\n", i,
			noOpt.HistFinished[i], noOpt.HistUnfinished[i],
			withOpt.HistFinished[i], withOpt.HistUnfinished[i])
	}
	fmt.Fprintf(w, "total    | %12d %12d | %12d %12d\n",
		noOpt.FinishedAdded, noOpt.UnfinishedAdded, withOpt.FinishedAdded, withOpt.UnfinishedAdded)
	fmt.Fprintf(w, "\nPaper shape: without the optimisation, many short jmp edges are added (mass in the low buckets);\n")
	fmt.Fprintf(w, "the tau thresholds suppress them, keeping only high-value shortcuts (speedup 16.2X -> 12.4X without it).\n")
	return nil
}

// Fig8 regenerates Fig. 8: thread scaling of PARCFL_DQ.
func Fig8(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out
	threads := []int{1, 2, 4, 8, 16}
	fmt.Fprintf(w, "Fig. 8: PARCFL_DQ speedups over SeqCFL by thread count (modeled; scale=%.4g, B=%d)\n", opts.Scale, opts.Budget)
	fmt.Fprintf(w, "%-14s", "Benchmark")
	for _, t := range threads {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("DQ%d", t))
	}
	fmt.Fprintln(w)

	sums := make([]float64, len(threads))
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return err
		}
		_, seq := b.runMode(engine.Seq, 1, opts.Budget, 0, 0)
		base := seq.StepsWalked()
		fmt.Fprintf(w, "%-14s", pr.Name)
		for i, t := range threads {
			_, st := b.runMode(engine.DQ, t, opts.Budget, 0, 0)
			sp := st.ModeledSpeedup(base)
			sums[i] += sp
			fmt.Fprintf(w, " %8.1f", sp)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "AVERAGE")
	for i := range threads {
		fmt.Fprintf(w, " %8.1f", sums[i]/float64(len(presets)))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "\nPaper reference: DQ1=8.1X, DQ2=11.8X, DQ4=13.9X, DQ8=15.8X, DQ16=16.2X\n")
	return nil
}

// Table2 regenerates Table II: the qualitative comparison of parallel
// pointer analyses, plus an empirical whole-program-vs-demand-driven
// contrast using our Andersen baseline.
func Table2(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out
	fmt.Fprintln(w, "Table II: comparing parallel pointer analyses")
	fmt.Fprintf(w, "%-12s %-22s %-10s %-8s %-6s %-6s %-10s %-9s\n",
		"Analysis", "Algorithm", "On-demand", "Context", "Field", "Flow", "Applications", "Platform")
	rows := []struct{ a, alg, dem, ctx, fld, flw, app, plat string }{
		{"[8]", "Andersen's", "no", "no", "yes", "no", "C", "CPU"},
		{"[3]", "Andersen's", "no", "no", "no", "part", "Java", "CPU"},
		{"[7]", "Andersen's", "no", "no", "yes", "no", "C", "GPU"},
		{"[14]", "Andersen's", "no", "yes", "no", "no", "C", "CPU"},
		{"[9]", "Andersen's", "no", "no", "yes", "yes", "C", "CPU"},
		{"[10]", "Andersen's", "no", "no", "yes", "yes", "C", "GPU"},
		{"[20]", "Andersen's", "no", "no", "yes", "no", "C", "CPU-GPU"},
		{"this paper", "CFL-Reachability", "yes", "yes", "yes", "no", "Java", "CPU"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-22s %-10s %-8s %-6s %-6s %-10s %-9s\n", r.a, r.alg, r.dem, r.ctx, r.fld, r.flw, r.app, r.plat)
	}

	fmt.Fprintf(w, "\nEmpirical whole-program vs demand-driven contrast (scale=%.4g):\n", opts.Scale)
	fmt.Fprintf(w, "%-14s %12s %14s %16s %22s\n", "Benchmark", "Andersen", "CFL all-queries", "CFL per-query", "CFL ctx-sensitive wins")
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return err
		}
		t0 := time.Now()
		and := andersen.Analyze(b.Lowered.Graph)
		andT := time.Since(t0)
		res, dq := b.runMode(engine.DQ, opts.Threads, opts.Budget, 0, 0)
		perQuery := time.Duration(0)
		if dq.Queries > 0 {
			perQuery = dq.Wall / time.Duration(dq.Queries)
		}
		// Precision: count queries whose context-sensitive set is
		// strictly smaller than Andersen's (completed queries only).
		wins, comparable := 0, 0
		for _, r := range res {
			if r.Aborted {
				continue
			}
			comparable++
			if len(r.Objects) < len(and.PointsTo(r.Var)) {
				wins++
			}
		}
		fmt.Fprintf(w, "%-14s %12s %14s %16s %15d/%d\n",
			pr.Name, andT.Round(time.Millisecond), dq.Wall.Round(time.Millisecond),
			perQuery.Round(time.Microsecond), wins, comparable)
	}
	return nil
}

// Ablation regenerates the Section IV-A / IV-D2 study of the selective jmp
// insertion thresholds: average DQ speedup with the paper's taus, without
// any thresholds, and with overly aggressive ones.
func Ablation(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out
	settings := []struct {
		name       string
		tauF, tauU int
	}{
		{"paper (tauF=100, tauU=10000)", 0, 0},
		{"no thresholds (insert all)", -1, -1},
		{"aggressive (tauF=2000, tauU=200000)", 2000, 200000},
	}
	fmt.Fprintf(w, "Ablation: selective jmp insertion thresholds (DQ, %d threads, scale=%.4g)\n", opts.Threads, opts.Scale)
	fmt.Fprintf(w, "%-38s %10s %10s %12s %10s\n", "setting", "modeled", "wall(s)", "#jumps", "R_S")
	for _, s := range settings {
		var modeled, wall, rs float64
		var jumps int64
		for _, pr := range presets {
			b, err := PrepareBench(pr, opts.Scale)
			if err != nil {
				return err
			}
			_, seq := b.runMode(engine.Seq, 1, opts.Budget, 0, 0)
			_, st := b.runMode(engine.DQ, opts.Threads, opts.Budget, s.tauF, s.tauU)
			modeled += st.ModeledSpeedup(seq.StepsWalked())
			wall += st.Wall.Seconds()
			jumps += st.Share.FinishedAdded + st.Share.UnfinishedAdded
			rs += st.RS()
		}
		n := float64(len(presets))
		fmt.Fprintf(w, "%-38s %10.1f %10.2f %12d %10.1f\n", s.name, modeled/n, wall, jumps, rs/n)
	}
	fmt.Fprintf(w, "\nPaper reference: disabling the optimisation drops the average speedup from 16.2X to 12.4X.\n")
	return nil
}

// Memory regenerates the Section IV-D5 comparison: peak heap usage of the
// sequential analysis vs PARCFL_DQ. Peaks are sampled from runtime.MemStats
// around each batch (GC makes this approximate, as the paper also notes).
func Memory(opts Options) error {
	opts = opts.withDefaults()
	presets, err := opts.presets()
	if err != nil {
		return err
	}
	w := opts.Out
	fmt.Fprintf(w, "Memory: peak heap during analysis (approximate; scale=%.4g)\n", opts.Scale)
	fmt.Fprintf(w, "%-14s %14s %14s %8s\n", "Benchmark", "Seq peak", "DQ peak", "ratio")
	var ratios float64
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return err
		}
		seqPeak := measurePeak(func() { b.runMode(engine.Seq, 1, opts.Budget, 0, 0) })
		dqPeak := measurePeak(func() { b.runMode(engine.DQ, opts.Threads, opts.Budget, 0, 0) })
		ratio := float64(dqPeak) / float64(seqPeak)
		ratios += ratio
		fmt.Fprintf(w, "%-14s %11.2fMB %11.2fMB %8.2f\n",
			pr.Name, float64(seqPeak)/1e6, float64(dqPeak)/1e6, ratio)
	}
	fmt.Fprintf(w, "%-14s %14s %14s %8.2f\n", "AVERAGE", "", "", ratios/float64(len(presets)))
	fmt.Fprintf(w, "\nPaper reference: PARCFL_DQ uses 65%% of SEQCFL's peak (35%% reduction), worst case 103%%.\n")
	return nil
}

// measurePeak runs f while sampling heap usage, returning the peak
// HeapAlloc observed (after a GC-settled baseline).
func measurePeak(f func()) uint64 {
	runtime.GC()
	var peak uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	f()
	close(done)
	<-sampled
	return peak
}

// All runs every experiment in paper order.
func All(opts Options) error {
	type exp struct {
		name string
		run  func(Options) error
	}
	for _, e := range []exp{
		{"table1", Table1}, {"fig6", Fig6}, {"fig7", Fig7},
		{"fig8", Fig8}, {"table2", Table2}, {"ablation", Ablation}, {"memory", Memory},
		{"summaries", Summaries}, {"intraquery", IntraQuery}, {"refinement", Refinement}, {"caching", Caching},
	} {
		fmt.Fprintf(opts.Out, "\n================ %s ================\n", e.name)
		if err := e.run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// Names lists the available experiment names in paper order.
func Names() []string {
	return []string{"table1", "fig6", "fig7", "fig8", "table2", "ablation", "memory", "summaries", "intraquery", "refinement", "caching", "bench", "all"}
}

// ByName dispatches an experiment by name.
func ByName(name string, opts Options) error {
	switch name {
	case "table1":
		return Table1(opts)
	case "fig6":
		return Fig6(opts)
	case "fig7":
		return Fig7(opts)
	case "fig8":
		return Fig8(opts)
	case "table2":
		return Table2(opts)
	case "ablation":
		return Ablation(opts)
	case "memory":
		return Memory(opts)
	case "summaries":
		return Summaries(opts)
	case "intraquery":
		return IntraQuery(opts)
	case "refinement":
		return Refinement(opts)
	case "caching":
		return Caching(opts)
	case "bench":
		return BenchTrajectory(opts)
	case "all":
		return All(opts)
	}
	return fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, Names())
}
