package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parcfl/internal/engine"
	"parcfl/internal/pag"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.95, 95}, // leaves five samples beyond it
		{hundred, 0.99, 99},
		{hundred, 1.00, 100},
		{[]float64{7}, 0.95, 7},
		{[]float64{1, 2, 3}, 0.50, 2},
		{[]float64{1, 2, 3, 4}, 0.50, 2},
		{[]float64{1, 2, 3}, 0.95, 3},
		{nil, 0.95, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, want %g", len(c.sorted), c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if got := spread([]float64{9, 10, 12}); got != 0.3 {
		t.Errorf("spread = %g, want 0.3", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},       // overlaps a: 30..40 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},      // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 25}, // nested: a's business, not request's
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - (50 + 10), // 10..60 and 90..100 are covered
		"a":       30 - 10,
		"b":       30,
		"c":       30,
		"a.inner": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	if id := r.add("x", 0, 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []arrival {
		rng := rand.New(rand.NewSource(seed))
		return poissonSchedule(rng, 500, 2*time.Second, zipfPicker(rng, zipfS, 1000))
	}
	a, b, other := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("two seeds gave the same schedule")
	}
	// 500/s for 2 s is 1000 arrivals, give or take Poisson noise (sd 32).
	if len(a) < 850 || len(a) > 1150 {
		t.Errorf("%d arrivals at 500/s over 2 s", len(a))
	}
	rank0 := 0
	for i, arr := range a {
		if i > 0 && arr.Due < a[i-1].Due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if arr.Due >= 2*time.Second || arr.Item < 0 || arr.Item >= 1000 {
			t.Fatalf("arrival %d out of range: %+v", i, arr)
		}
		if arr.Item == 0 {
			rank0++
		}
	}
	// Zipf(1.1) over 1000 ranks gives rank 0 about 19% of the draws; a
	// uniform draw would give it 0.1%.
	if share := float64(rank0) / float64(len(a)); share < 0.10 || share > 0.30 {
		t.Errorf("rank 0 drew %.1f%% of arrivals", 100*share)
	}
}

// A stall in the generator delays the arrivals due during it. Their latency
// runs from when they were due, so it includes what is left of the stall,
// and the generator's lateness shows it too.
func TestLatencyRunsFromDueTimeAcrossAStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	sched := []arrival{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}, {Due: 200 * time.Millisecond}}
	loop := openLoop{MaxInflight: 8, sleepUntil: func(start time.Time, off time.Duration) {
		if off == 10*time.Millisecond {
			off += stall // the generator wakes 60 ms late for the second arrival
		}
		sleepUntil(start, off)
	}}
	samples := loop.run(sched, func(int, arrival, time.Time) bool { return true })

	for i, atLeast := range []time.Duration{0, stall, stall - 10*time.Millisecond, 0} {
		s := samples[i]
		if s.Outcome != outcomeOK {
			t.Fatalf("arrival %d: outcome %d", i, s.Outcome)
		}
		if s.Latency < atLeast || s.Late < atLeast {
			t.Errorf("arrival %d: latency %v, late %v, want both at least %v", i, s.Latency, s.Late, atLeast)
		}
	}
	// The last arrival was due long after the stall and must not carry it.
	if last := samples[3]; last.Latency > stall/2 {
		t.Errorf("arrival due after the stall has latency %v", last.Latency)
	}
	sum := summarise(samples, 30*time.Millisecond)
	if sum.OK != 4 || sum.Failed != 0 || sum.WithinLimit != 2 {
		t.Errorf("summary %+v: want 4 OK, none failed, 2 within 30 ms", sum)
	}
}

func TestShedArrivalsCountAsFailed(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	sched := []arrival{{Due: 0, Item: 0}, {Due: time.Millisecond, Item: 1}, {Due: 2 * time.Millisecond, Item: 2}}
	done := make(chan []openSample)
	go func() {
		done <- openLoop{MaxInflight: 1}.run(sched, func(int, arrival, time.Time) bool {
			started.Add(1)
			<-release
			return true
		})
	}()
	// The first request holds the only slot until released, which happens
	// only after the generator has been through the whole schedule.
	time.Sleep(50 * time.Millisecond)
	close(release)
	samples := <-done

	if started.Load() != 1 {
		t.Fatalf("%d requests were sent past an in-flight limit of 1", started.Load())
	}
	if samples[0].Outcome != outcomeOK || samples[1].Outcome != outcomeShed || samples[2].Outcome != outcomeShed {
		t.Fatalf("outcomes %d %d %d, want OK, shed, shed", samples[0].Outcome, samples[1].Outcome, samples[2].Outcome)
	}
	sum := summarise(samples, time.Hour)
	if sum.Sent != 3 || sum.OK != 1 || sum.Failed != 2 || sum.WithinLimit != 1 || len(sum.LatMS) != 1 {
		t.Errorf("summary %+v: want 3 sent, 1 OK, 2 failed, 1 within the limit, 1 latency", sum)
	}

	w, _ := workloadByName("serve-mixed-open")
	r := newRun(w, options{})
	r.count(answered)
	r.fail(sum.Failed, "shed")
	if rep := r.report(); rep.Correct || rep.Attempted != 3 || rep.Failed != 2 {
		t.Errorf("report: correct %v, attempted %d, failed %d; want false, 3, 2", rep.Correct, rep.Attempted, rep.Failed)
	}
}

func TestVerdictsAndAnsweredShare(t *testing.T) {
	w, _ := workloadByName("batch-seq-lib")
	r := newRun(w, options{})
	for _, v := range []verdict{answered, answered, answered, unanswered} {
		r.count(v)
	}
	r.finishTimed()
	rep := r.report()
	if !rep.Correct || rep.Attempted != 4 || rep.Failed != 0 || rep.Metrics["answered_share"] != 0.75 {
		t.Errorf("an aborted query is an answer that lowers answered_share, not a failure: %+v", rep)
	}
	r.count(wrong)
	if rep := r.report(); rep.Correct || rep.Failed != 1 {
		t.Errorf("a wrong answer is a failure: %+v", rep)
	}
}

func TestCompareRefusesIncomparableStamps(t *testing.T) {
	base := func() *report {
		return &report{Workload: "serve-warm", Stamp: stamp{GoMaxProcs: 2, Seed: 1, Seconds: 12, Scale: 0.05, Threads: 2},
			Metrics: map[string]float64{"setup_s": 1, "qps": 100, "p50_ms": 5, "p95_ms": 8, "answered_share": 0.9, "peak_rss_mb": 50}}
	}
	a, b := base(), base()
	b.Metrics["qps"] = 50 // would be a regression, were the two comparable
	b.Stamp.GoMaxProcs = 4
	if _, err := compare(a, b); err == nil || !strings.Contains(err.Error(), "incomparable") {
		t.Errorf("GOMAXPROCS 2 against 4: err = %v, want incomparable", err)
	}
	b.Stamp.GoMaxProcs, b.Stamp.Seed = 2, 9
	if _, err := compare(a, b); err == nil || !strings.Contains(err.Error(), "incomparable") {
		t.Errorf("seed 1 against 9: err = %v, want incomparable", err)
	}
	b.Stamp.Seed = 1
	regs, err := compare(a, b)
	if err != nil || len(regs) != 1 || !strings.Contains(regs[0], "qps") {
		t.Errorf("halved qps: regressions %v, err %v", regs, err)
	}

	// Direction and bound: lower-is-better metrics regress upwards, and a
	// change inside the bound is not a regression.
	c := base()
	c.Metrics["p50_ms"] = 5.4  // 8% worse, bound 10%
	c.Metrics["p95_ms"] = 6    // better
	c.Metrics["qps"] = 130     // better
	c.Metrics["setup_s"] = 1.3 // 30% worse, bound 25%
	regs, err = compare(a, c)
	if err != nil || len(regs) != 1 || !strings.Contains(regs[0], "setup_s") {
		t.Errorf("regressions %v, err %v; want setup_s alone", regs, err)
	}
}

// BENCHMARK.json is generated by `go run . -manifest`; this keeps the
// committed file, the tables in spec.go and the driver's limits in step.
func TestManifestMatchesCommittedFileAndContract(t *testing.T) {
	m := manifest()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed manifestFile
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, committed) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit, d.Better)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	for _, trace := range []bool{false, true} {
		w, _ := workloadByName("serve-warm")
		r := newRun(w, options{trace: trace})
		r.count(answered)
		line, err := r.report().resultLine()
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("result line keys: %s", line)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if defs := defsFor(trace); len(metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics on the line, %d defined", trace, len(metrics), len(defs))
		}
	}
}

func TestDigestAndReferenceIgnoreOrderAndAbortedQueries(t *testing.T) {
	q := func(v pag.NodeID, aborted bool, objs ...pag.NodeID) engine.QueryResult {
		return engine.QueryResult{Var: v, Aborted: aborted, Objects: objs}
	}
	full := []engine.QueryResult{q(1, false, 5, 3), q(2, false, 7), q(9, true, 1)}
	if digest(full) != digest([]engine.QueryResult{q(2, false, 7), q(1, false, 3, 5)}) {
		t.Error("digest depends on order or on an aborted query")
	}
	if digest(full) == digest([]engine.QueryResult{q(2, false, 7), q(1, false, 3)}) {
		t.Error("digest misses a dropped object")
	}

	g := pag.NewGraph()
	ref := newReference(g, nil)
	ref[1] = answer{objects: []pag.NodeID{3, 5}}
	ref[9] = answer{aborted: true}
	for _, c := range []struct {
		r    engine.QueryResult
		want verdict
	}{
		{q(1, false, 5, 3), answered},
		{q(1, false, 5), wrong},
		{q(1, true, 5), unanswered},  // aborted here, completed in the reference
		{q(9, false, 1), unanswered}, // completed here, aborted in the reference
		{q(4, false), wrong},         // not in the census
	} {
		if got := ref.checkResult(c.r); got != c.want {
			t.Errorf("checkResult(%+v) = %d, want %d", c.r, got, c.want)
		}
	}
}
