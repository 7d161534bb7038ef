package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// options are the inputs of one workload run.
type options struct {
	seed         int64
	seconds      float64
	trace        bool
	outDir       string
	updateGolden bool
}

// stamp records what a result depends on besides the code under test, so
// that two results are compared only when they are comparable.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Threads    int     `json:"threads"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Preset     string  `json:"preset"`
	Scale      float64 `json:"scale"`
	Budget     int     `json:"budget"`
	OpenRateLo float64 `json:"open_rate_lo"`
	OpenRateHi float64 `json:"open_rate_hi"`
}

func newStamp(w workloadSpec, opt options) stamp {
	return stamp{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Threads: threads(),
		GoVersion: runtime.Version(), GitRev: gitRev(),
		Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Preset: w.Preset, Scale: w.Scale, Budget: budget,
		OpenRateLo: openRateLo, OpenRateHi: openRateHi,
	}
}

// gitRev names the source revision when the benchmark runs inside a git
// checkout; the driver's checkout is not one.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report is everything one workload run produced.
type report struct {
	Workload  string `json:"workload"`
	Stamp     stamp  `json:"stamp"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Check is the answer check's verdict in words.
	Check string `json:"check"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one. Spread is the range between the
	// run's passes as a share of their median, where a metric has passes.
	Metrics map[string]float64 `json:"metrics"`
	Spread  map[string]float64 `json:"spread,omitempty"`
}

// run carries one workload run's state: what it was asked, the span
// recorder of a traced run (nil otherwise) and the result so far.
type run struct {
	spec workloadSpec
	opt  options
	rec  *recorder

	// mu guards the verdict counts, which concurrent callers book.
	mu                          sync.Mutex
	attempted, answered, failed int
	notes                       []string
	e2e, spreads, layers        map[string]float64
}

func newRun(w workloadSpec, opt options) *run {
	r := &run{spec: w, opt: opt, e2e: map[string]float64{}, spreads: map[string]float64{}, layers: map[string]float64{}}
	if opt.trace {
		r.rec = newRecorder()
	}
	return r
}

// count books one query's verdict.
func (r *run) count(v verdict) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch v {
	case answered:
		r.answered++
	case wrong:
		r.failed++
	}
}

// fail books n queries that got no usable reply.
func (r *run) fail(n int, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += n
	if len(r.notes) < 5 {
		r.notes = append(r.notes, why)
	}
}

// passes sets an end-to-end metric to the median of its per-pass values and
// records the spread between them.
func (r *run) passes(name string, vs []float64) {
	r.e2e[name] = median(vs)
	r.spreads[name] = spread(vs)
}

// setup runs build until it has run setupReps times and for a second in
// all (so that a set-up of a few milliseconds is still a steady median),
// books the median as setup_s and keeps only the last product: every
// earlier one is torn down at once.
func (r *run) setup(build func() (teardown func(), err error)) (teardown func(), err error) {
	var took []float64
	for total := 0.0; len(took) < setupReps || (total < 1 && len(took) < maxSetupReps); {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		teardown, err = build()
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		total += took[len(took)-1]
	}
	r.passes("setup_s", took)
	// What the discarded repetitions left behind is not the workload's
	// memory: collect it before the timed section can stack on top of it.
	runtime.GC()
	if teardown == nil {
		teardown = func() {}
	}
	return teardown, nil
}

// finishTimed books what is known once the timed section ends. It reads the
// peak resident set, so workloads call it before the oracle checks.
func (r *run) finishTimed() {
	r.e2e["peak_rss_mb"] = peakRSSMiB()
	r.e2e["answered_share"] = ratio(float64(r.answered), float64(r.attempted))
}

func (r *run) report() *report {
	rep := &report{
		Workload: r.spec.Name, Stamp: newStamp(r.spec, r.opt),
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]float64{}, Spread: r.spreads,
	}
	defs, src := endToEnd, r.e2e
	if r.opt.trace {
		defs, src, rep.Spread = perLayer, r.layers, nil
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = src[d.Name]
	}
	rep.Check = fmt.Sprintf("%d of %d queries answered and equal to the reference, %d failed", r.answered, r.attempted, r.failed)
	if len(r.notes) > 0 {
		rep.Check += ": " + strings.Join(r.notes, "; ")
	}
	return rep
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable block for one report.
func (rep *report) print(w io.Writer) {
	s := rep.Stamp
	fmt.Fprintf(w, "%s  (%s x%g, seed %d, %gs, trace=%v, nproc %d, GOMAXPROCS %d, threads %d, %s, rev %s)\n",
		rep.Workload, s.Preset, s.Scale, s.Seed, s.Seconds, s.Trace, s.NumCPU, s.GoMaxProcs, s.Threads, s.GoVersion, s.GitRev)
	for _, d := range defsFor(s.Trace) {
		line := fmt.Sprintf("  %-36s %14.6g %-6s", d.Name, rep.Metrics[d.Name], d.Unit)
		if sp, ok := rep.Spread[d.Name]; ok {
			line += fmt.Sprintf("  spread between passes %.1f%%", 100*sp)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v: %s\n", rep.Attempted, rep.Failed, rep.Correct, rep.Check)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) resultLine() ([]byte, error) {
	out := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defsFor(rep.Stamp.Trace) {
		out.Metrics[d.Name] = metricValue{Value: rep.Metrics[d.Name], Unit: d.Unit}
	}
	return json.Marshal(out)
}

// sameConditions says whether two reports may be compared: the same
// workload and inputs on the same parallelism. Reports that differ in
// GOMAXPROCS or seed are incomparable, not regressions of one another.
func sameConditions(a, b *report) error {
	switch {
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ: %s and %s", a.Workload, b.Workload)
	case a.Stamp.GoMaxProcs != b.Stamp.GoMaxProcs:
		return fmt.Errorf("GOMAXPROCS differs: %d and %d", a.Stamp.GoMaxProcs, b.Stamp.GoMaxProcs)
	case a.Stamp.Seed != b.Stamp.Seed:
		return fmt.Errorf("seeds differ: %d and %d", a.Stamp.Seed, b.Stamp.Seed)
	case a.Stamp.Seconds != b.Stamp.Seconds || a.Stamp.Scale != b.Stamp.Scale || a.Stamp.Threads != b.Stamp.Threads:
		return fmt.Errorf("run length, scale or threads differ")
	}
	return nil
}

// worseBy is how much worse b's value is than a's as a share of a's, in
// the metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare lists the end-to-end metrics on which b is worse than a by more
// than the metric's bound.
func compare(a, b *report) (regressions []string, err error) {
	if err := sameConditions(a, b); err != nil {
		return nil, fmt.Errorf("%s: incomparable: %w", a.Workload, err)
	}
	for _, d := range endToEnd {
		if w := worseBy(d, a.Metrics[d.Name], b.Metrics[d.Name]); w > d.Bound {
			regressions = append(regressions, fmt.Sprintf("%s %s: %.6g -> %.6g %s is %.1f%% worse, bound %.1f%%",
				a.Workload, d.Name, a.Metrics[d.Name], b.Metrics[d.Name], d.Unit, 100*w, 100*d.Bound))
		}
	}
	return regressions, nil
}
