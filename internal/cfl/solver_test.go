package cfl

import (
	"sort"
	"testing"

	"parcfl/internal/frontend"
	"parcfl/internal/pag"
	"parcfl/internal/share"
)

func fig2(t *testing.T) *frontend.Fig2 {
	t.Helper()
	f, err := frontend.BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func objsOf(r Result) []pag.NodeID {
	o := r.Objects()
	sort.Slice(o, func(i, j int) bool { return o[i] < o[j] })
	return o
}

func wantObjs(t *testing.T, name string, r Result, want ...pag.NodeID) {
	t.Helper()
	if r.Aborted {
		t.Fatalf("%s: query aborted", name)
	}
	got := objsOf(r)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%s: points-to = %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: points-to = %v, want %v", name, got, want)
		}
	}
}

// TestFig2PointsTo checks the exact facts the paper derives from Fig. 2:
// s1main points to o16 (via matched param17/param17 then param18/ret18) but
// NOT to o20, and symmetrically for s2main.
func TestFig2PointsTo(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{})

	wantObjs(t, "s1", s.PointsTo(f.S1, pag.EmptyContext), f.O16)
	wantObjs(t, "s2", s.PointsTo(f.S2, pag.EmptyContext), f.O20)
	wantObjs(t, "v1", s.PointsTo(f.V1, pag.EmptyContext), f.O15)
	wantObjs(t, "v2", s.PointsTo(f.V2, pag.EmptyContext), f.O19)
	wantObjs(t, "n1", s.PointsTo(f.N1, pag.EmptyContext), f.O16)
	wantObjs(t, "n2", s.PointsTo(f.N2, pag.EmptyContext), f.O20)
	// tget holds the Object[] array o6 regardless of receiver.
	wantObjs(t, "tget", s.PointsTo(f.TGet, pag.EmptyContext), f.O6)
	wantObjs(t, "tadd", s.PointsTo(f.TAdd, pag.EmptyContext), f.O6)
	// thisVector is the ctor receiver for both vectors.
	wantObjs(t, "thisVector", s.PointsTo(f.ThisVector, pag.EmptyContext), f.O15, f.O19)
	// eadd receives both n1 and n2 across call sites (empty query context
	// allows partially balanced paths).
	wantObjs(t, "eadd", s.PointsTo(f.EAdd, pag.EmptyContext), f.O16, f.O20)
	// retget reads both elements out of the shared backing array, but the
	// ret18/ret22 matching separates them at s1/s2.
	wantObjs(t, "retget", s.PointsTo(f.RetGet, pag.EmptyContext), f.O16, f.O20)
}

// TestFig2ContextSensitivity pins the headline precision claim: the
// context-insensitive answer would conflate s1/s2, the CFL answer does not.
func TestFig2ContextSensitivity(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{})
	r1 := s.PointsTo(f.S1, pag.EmptyContext)
	for _, o := range r1.Objects() {
		if o == f.O20 {
			t.Fatal("s1 spuriously points to o20 (context-sensitivity broken)")
		}
	}
	r2 := s.PointsTo(f.S2, pag.EmptyContext)
	for _, o := range r2.Objects() {
		if o == f.O16 {
			t.Fatal("s2 spuriously points to o16 (context-sensitivity broken)")
		}
	}
}

// TestFig2FlowsTo checks the forward direction, including the paper's
// example fact "o6 flows to tget" and "o15 flows to thisVector".
func TestFig2FlowsTo(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{})

	vars := func(r Result) map[pag.NodeID]bool {
		m := map[pag.NodeID]bool{}
		for _, nc := range r.PointsTo {
			m[nc.Node] = true
		}
		return m
	}

	r6 := s.FlowsTo(f.O6, pag.EmptyContext)
	v6 := vars(r6)
	for _, want := range []pag.NodeID{f.TVector, f.TAdd, f.TGet} {
		if !v6[want] {
			t.Errorf("o6 should flow to %s", s.Graph().Node(want).Name)
		}
	}
	if v6[f.S1] || v6[f.S2] || v6[f.ThisVector] {
		t.Error("o6 flows to spurious variables")
	}

	r15 := s.FlowsTo(f.O15, pag.EmptyContext)
	v15 := vars(r15)
	for _, want := range []pag.NodeID{f.V1, f.ThisVector, f.ThisAdd, f.ThisGet} {
		if !v15[want] {
			t.Errorf("o15 should flow to %s", s.Graph().Node(want).Name)
		}
	}
	if v15[f.V2] {
		t.Error("o15 flows to v2")
	}

	r16 := s.FlowsTo(f.O16, pag.EmptyContext)
	v16 := vars(r16)
	for _, want := range []pag.NodeID{f.N1, f.EAdd, f.S1} {
		if !v16[want] {
			t.Errorf("o16 should flow to %s", s.Graph().Node(want).Name)
		}
	}
	if v16[f.S2] || v16[f.N2] {
		t.Error("o16 flows to s2/n2 (context-sensitivity broken)")
	}
}

// TestFig2Alias checks the paper's alias example: thisVector alias thisget.
func TestFig2Alias(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{})
	if a, ok := s.Alias(f.ThisVector, f.ThisGet, pag.EmptyContext); !a || !ok {
		t.Fatalf("thisVector alias thisget = %v (ok=%v), want true", a, ok)
	}
	if a, _ := s.Alias(f.N1, f.N2, pag.EmptyContext); a {
		t.Fatal("n1 alias n2, want false")
	}
	if a, _ := s.Alias(f.S1, f.S2, pag.EmptyContext); a {
		t.Fatal("s1 alias s2, want false")
	}
	if a, _ := s.Alias(f.TAdd, f.TGet, pag.EmptyContext); !a {
		t.Fatal("tadd alias tget, want true (shared backing array)")
	}
}

// TestAliasAbortedNotOK: a budget too small for the points-to sub-queries
// makes Alias report ok=false. The partial sets under-approximate, so an
// aborted alias=true must still be a real alias, while an aborted
// alias=false carries no information.
func TestAliasAbortedNotOK(t *testing.T) {
	f := fig2(t)
	full := New(f.Lowered.Graph, Config{})
	s := New(f.Lowered.Graph, Config{Budget: 1})
	for _, p := range [][2]pag.NodeID{
		{f.ThisVector, f.ThisGet}, {f.TAdd, f.TGet}, {f.S1, f.S2},
	} {
		a, ok := s.Alias(p[0], p[1], pag.EmptyContext)
		if ok {
			t.Fatalf("Alias(%d, %d) under budget 1 reported ok=true", p[0], p[1])
		}
		if want, _ := full.Alias(p[0], p[1], pag.EmptyContext); a && !want {
			t.Fatalf("Alias(%d, %d) aborted with alias=true, but the pair does not alias", p[0], p[1])
		}
	}
}

// TestQueryInCallingContext exercises a non-empty initial context: querying
// eadd in the context of call site 17 must see only n1's object.
func TestQueryInCallingContext(t *testing.T) {
	f := fig2(t)
	g := f.Lowered.Graph
	s := New(g, Config{})
	// Find the call sites used for add(v1, n1) and add(v2, n2) from
	// eadd's incoming param edges; n1's edge carries the first.
	var site17, site21 pag.CallSiteID
	for _, he := range g.In(f.EAdd) {
		if he.Kind == pag.EdgeParam {
			if he.Other == f.N1 {
				site17 = pag.CallSiteID(he.Label)
			}
			if he.Other == f.N2 {
				site21 = pag.CallSiteID(he.Label)
			}
		}
	}
	if site17 == 0 || site21 == 0 {
		t.Fatal("could not locate add call sites")
	}
	wantObjs(t, "eadd@17", s.PointsTo(f.EAdd, pag.EmptyContext.Push(site17)), f.O16)
	wantObjs(t, "eadd@21", s.PointsTo(f.EAdd, pag.EmptyContext.Push(site21)), f.O20)
}

func TestBudgetAbort(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{Budget: 3})
	r := s.PointsTo(f.S1, pag.EmptyContext)
	if !r.Aborted {
		t.Fatal("budget 3 did not abort the s1 query")
	}
	if r.EarlyTerminated {
		t.Fatal("abort misreported as early termination")
	}
	if r.Steps < 3 {
		t.Fatalf("Steps = %d, want >= 3", r.Steps)
	}
	// A generous budget must not abort and must match the unbudgeted run.
	s2 := New(f.Lowered.Graph, Config{Budget: 100000})
	r2 := s2.PointsTo(f.S1, pag.EmptyContext)
	if r2.Aborted {
		t.Fatal("generous budget aborted")
	}
	wantObjs(t, "s1@budget", r2, f.O16)
}

// TestSharingSameResults runs every Fig. 2 query twice against a shared
// store: the second run must take shortcuts (on the expensive queries) and
// return identical results.
func TestSharingSameResults(t *testing.T) {
	f := fig2(t)
	st := share.NewStore(share.Config{TauF: 1, TauU: 1, Shards: 8})
	plain := New(f.Lowered.Graph, Config{})
	shared := New(f.Lowered.Graph, Config{Share: st})

	queryVars := f.Lowered.AppQueryVars
	// First pass populates the store.
	for _, v := range queryVars {
		shared.PointsTo(v, pag.EmptyContext)
	}
	if st.NumJumps() == 0 {
		t.Fatal("no jmp edges recorded")
	}
	// Second pass must agree with the unshared solver on every query.
	totalTaken := 0
	for _, v := range queryVars {
		a := plain.PointsTo(v, pag.EmptyContext)
		b := shared.PointsTo(v, pag.EmptyContext)
		ga, gb := objsOf(a), objsOf(b)
		if len(ga) != len(gb) {
			t.Fatalf("var %s: %v vs %v", f.Lowered.Graph.Node(v).Name, ga, gb)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("var %s: %v vs %v", f.Lowered.Graph.Node(v).Name, ga, gb)
			}
		}
		totalTaken += b.JumpsTaken
	}
	if totalTaken == 0 {
		t.Fatal("second pass took no shortcuts")
	}
}

// TestSharingChargesSteps: a query that takes a shortcut must charge the
// recorded cost to its budget, so budget accounting stays comparable to an
// unshared run.
func TestSharingChargesSteps(t *testing.T) {
	f := fig2(t)
	st := share.NewStore(share.Config{TauF: 1, TauU: 1, Shards: 8})
	shared := New(f.Lowered.Graph, Config{Share: st})
	shared.PointsTo(f.S1, pag.EmptyContext)
	r := shared.PointsTo(f.S1, pag.EmptyContext)
	if r.JumpsTaken == 0 {
		t.Fatal("repeat query took no shortcut")
	}
	if r.StepsSaved == 0 {
		t.Fatal("StepsSaved not accounted")
	}
	if r.Steps < r.StepsSaved {
		t.Fatalf("Steps (%d) must include charged shortcut cost (%d)", r.Steps, r.StepsSaved)
	}
}

// TestEarlyTermination: an unfinished jmp recorded by an aborted query must
// early-terminate a later query with insufficient budget.
func TestEarlyTermination(t *testing.T) {
	f := fig2(t)
	st := share.NewStore(share.Config{TauF: 1, TauU: 1, Shards: 8})

	// First query aborts with a mid-sized budget, recording unfinished
	// markers for its open expansions.
	tight := New(f.Lowered.Graph, Config{Budget: 12, Share: st})
	r1 := tight.PointsTo(f.S1, pag.EmptyContext)
	if !r1.Aborted {
		t.Skip("budget 12 unexpectedly sufficient; adjust test budget")
	}
	snap := st.Snapshot()
	if snap.UnfinishedAdded == 0 {
		t.Fatal("aborted query recorded no unfinished jmp edges")
	}

	// A second query with an even smaller budget must hit the unfinished
	// marker and early-terminate.
	tighter := New(f.Lowered.Graph, Config{Budget: 11, Share: st})
	r2 := tighter.PointsTo(f.S1, pag.EmptyContext)
	if !r2.Aborted {
		t.Fatal("second query completed unexpectedly")
	}
	if !r2.EarlyTerminated {
		t.Fatal("second query aborted without early termination")
	}
	// The early termination must not consume the full budget in steps
	// actually walked: it stopped at the marker.
	if r2.Steps > r1.Steps {
		t.Fatalf("ET query walked %d steps, recording query walked %d", r2.Steps, r1.Steps)
	}
}

// TestAbortedQueryRecordsNoFinishedJumps: finished jmp edges must only come
// from queries that completed (their targets are exact).
func TestAbortedQueryRecordsNoFinishedJumps(t *testing.T) {
	f := fig2(t)
	st := share.NewStore(share.Config{TauF: 1, TauU: 1, Shards: 8})
	tight := New(f.Lowered.Graph, Config{Budget: 5, Share: st})
	tight.PointsTo(f.S1, pag.EmptyContext)
	snap := st.Snapshot()
	if snap.FinishedAdded != 0 {
		t.Fatalf("aborted query recorded %d finished jumps", snap.FinishedAdded)
	}
}

func TestFlowsToOnVariableAndPointsToOnObject(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{})
	// PointsTo on an object is vacuous (objects have no incoming value
	// flow) and must return empty rather than crash.
	r := s.PointsTo(f.O15, pag.EmptyContext)
	if len(r.PointsTo) != 0 || r.Aborted {
		t.Fatalf("PointsTo(object) = %+v", r)
	}
}

func TestUnfrozenGraphPanics(t *testing.T) {
	g := pag.NewGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("New on unfrozen graph did not panic")
		}
	}()
	New(g, Config{})
}

func TestResultObjectsDedup(t *testing.T) {
	r := Result{PointsTo: []pag.NodeCtx{
		{Node: 5, Ctx: pag.EmptyContext},
		{Node: 5, Ctx: pag.EmptyContext.Push(1)},
		{Node: 7, Ctx: pag.EmptyContext},
	}}
	o := r.Objects()
	if len(o) != 2 || o[0] != 5 || o[1] != 7 {
		t.Fatalf("Objects = %v", o)
	}
}

// TestDeterminism: repeated runs must produce identical step counts and
// result orders (insertion-ordered sets, sorted indexes).
func TestDeterminism(t *testing.T) {
	f := fig2(t)
	s := New(f.Lowered.Graph, Config{})
	base := s.PointsTo(f.S1, pag.EmptyContext)
	for i := 0; i < 5; i++ {
		r := s.PointsTo(f.S1, pag.EmptyContext)
		if r.Steps != base.Steps {
			t.Fatalf("run %d: steps %d vs %d", i, r.Steps, base.Steps)
		}
		if len(r.PointsTo) != len(base.PointsTo) {
			t.Fatalf("run %d: result size changed", i)
		}
		for j := range r.PointsTo {
			if r.PointsTo[j] != base.PointsTo[j] {
				t.Fatalf("run %d: result order changed", i)
			}
		}
	}
}
