package parcfl

import (
	"sort"
	"testing"
)

// vectorProgram builds the paper's Fig. 2 Vector example through the public
// API (same shape as examples/quickstart).
func vectorProgram() *Program {
	const (
		tInt = TypeID(iota)
		tObject
		tObjArr
		tString
		tInteger
		tVector
	)
	const fElems = FieldID(1)
	return &Program{
		Types: []Type{
			{Name: "int"},
			{Name: "Object", Ref: true},
			{Name: "Object[]", Ref: true, Fields: []Field{{Name: "arr", ID: ArrField, Type: tObject}}},
			{Name: "String", Ref: true},
			{Name: "Integer", Ref: true},
			{Name: "Vector", Ref: true, Fields: []Field{
				{Name: "elems", ID: fElems, Type: tObjArr},
				{Name: "count", ID: 2, Type: tInt},
			}},
		},
		Methods: []Method{
			{ // 0: Vector.<init>
				Name:   "Vector.<init>",
				Locals: []LocalVar{{Name: "this", Type: tVector}, {Name: "t", Type: tObjArr}},
				Params: []int{0}, Ret: -1, Application: true,
				Body: []Stmt{
					{Kind: StAlloc, Dst: Local(1), Type: tObjArr},
					{Kind: StStore, Base: Local(0), Field: fElems, Src: Local(1)},
				},
			},
			{ // 1: Vector.add
				Name:   "Vector.add",
				Locals: []LocalVar{{Name: "this", Type: tVector}, {Name: "e", Type: tObject}, {Name: "t", Type: tObjArr}},
				Params: []int{0, 1}, Ret: -1, Application: true,
				Body: []Stmt{
					{Kind: StLoad, Dst: Local(2), Base: Local(0), Field: fElems},
					{Kind: StStore, Base: Local(2), Field: ArrField, Src: Local(1)},
				},
			},
			{ // 2: Vector.get
				Name:   "Vector.get",
				Locals: []LocalVar{{Name: "this", Type: tVector}, {Name: "t", Type: tObjArr}, {Name: "ret", Type: tObject}},
				Params: []int{0}, Ret: 2, Application: true,
				Body: []Stmt{
					{Kind: StLoad, Dst: Local(1), Base: Local(0), Field: fElems},
					{Kind: StLoad, Dst: Local(2), Base: Local(1), Field: ArrField},
				},
			},
			{ // 3: main
				Name: "main",
				Locals: []LocalVar{
					{Name: "v1", Type: tVector}, {Name: "n1", Type: tString}, {Name: "s1", Type: tObject},
					{Name: "v2", Type: tVector}, {Name: "n2", Type: tInteger}, {Name: "s2", Type: tObject},
				},
				Ret: -1, Application: true,
				Body: []Stmt{
					{Kind: StAlloc, Dst: Local(0), Type: tVector},
					{Kind: StCall, Callee: 0, Args: []VarRef{Local(0)}, Dst: NoVar},
					{Kind: StAlloc, Dst: Local(1), Type: tString},
					{Kind: StCall, Callee: 1, Args: []VarRef{Local(0), Local(1)}, Dst: NoVar},
					{Kind: StCall, Callee: 2, Args: []VarRef{Local(0)}, Dst: Local(2)},
					{Kind: StAlloc, Dst: Local(3), Type: tVector},
					{Kind: StCall, Callee: 0, Args: []VarRef{Local(3)}, Dst: NoVar},
					{Kind: StAlloc, Dst: Local(4), Type: tInteger},
					{Kind: StCall, Callee: 1, Args: []VarRef{Local(3), Local(4)}, Dst: NoVar},
					{Kind: StCall, Callee: 2, Args: []VarRef{Local(3)}, Dst: Local(5)},
				},
			},
		},
	}
}

func newVectorAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(vectorProgram())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPublicAPIPointsTo(t *testing.T) {
	a := newVectorAnalyzer(t)
	s1 := a.LocalNode(3, 2)
	o16 := a.ObjectNodes(3)[1] // n1 = new String
	o20 := a.ObjectNodes(3)[3] // n2 = new Integer

	r := a.PointsTo(s1, EmptyContext, QueryOptions{})
	if r.Aborted {
		t.Fatal("query aborted")
	}
	objs := r.Objects()
	if len(objs) != 1 || objs[0] != o16 {
		t.Fatalf("s1 points to %v, want [o16=%d]", objs, o16)
	}
	for _, o := range objs {
		if o == o20 {
			t.Fatal("context sensitivity lost through public API")
		}
	}
}

func TestPublicAPIFlowsTo(t *testing.T) {
	a := newVectorAnalyzer(t)
	o16 := a.ObjectNodes(3)[1]
	s1 := a.LocalNode(3, 2)
	s2 := a.LocalNode(3, 5)
	r := a.FlowsTo(o16, EmptyContext, QueryOptions{})
	found := map[NodeID]bool{}
	for _, nc := range r.PointsTo {
		found[nc.Node] = true
	}
	if !found[s1] {
		t.Fatal("o16 should flow to s1")
	}
	if found[s2] {
		t.Fatal("o16 must not flow to s2")
	}
}

func TestPublicAPIAlias(t *testing.T) {
	a := newVectorAnalyzer(t)
	thisVector := a.LocalNode(0, 0)
	thisGet := a.LocalNode(2, 0)
	n1 := a.LocalNode(3, 1)
	n2 := a.LocalNode(3, 4)
	if al, ok := a.Alias(thisVector, thisGet, EmptyContext, QueryOptions{}); !al || !ok {
		t.Fatalf("thisVector alias thisGet = %v/%v", al, ok)
	}
	if al, _ := a.Alias(n1, n2, EmptyContext, QueryOptions{}); al {
		t.Fatal("n1 alias n2")
	}
	// A budget too small to finish the points-to sub-queries yields ok=false.
	if _, ok := a.Alias(thisVector, thisGet, EmptyContext, QueryOptions{Budget: 1}); ok {
		t.Fatal("Alias under budget 1 reported ok=true")
	}
}

func TestPublicAPIBatchModes(t *testing.T) {
	a := newVectorAnalyzer(t)
	queries := a.ApplicationQueryVars()
	if len(queries) != 14 {
		t.Fatalf("query vars = %d, want 14", len(queries))
	}
	baseline := map[NodeID][]NodeID{}
	res, stats := a.RunBatch(queries, BatchOptions{Mode: Sequential})
	if stats.Queries != len(queries) || stats.Aborted != 0 {
		t.Fatalf("sequential stats: %+v", stats)
	}
	for _, r := range res {
		objs := append([]NodeID{}, r.Objects...)
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		baseline[r.Var] = objs
	}
	for _, mode := range []Mode{Naive, Sharing, SharingScheduling} {
		res, stats := a.RunBatch(queries, BatchOptions{Mode: mode, Threads: 4, TauF: 1, TauU: 1})
		if stats.Aborted != 0 {
			t.Fatalf("%v aborted %d", mode, stats.Aborted)
		}
		for _, r := range res {
			objs := append([]NodeID{}, r.Objects...)
			sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
			want := baseline[r.Var]
			if len(objs) != len(want) {
				t.Fatalf("%v: %s: %v vs %v", mode, a.NodeName(r.Var), objs, want)
			}
			for i := range want {
				if objs[i] != want[i] {
					t.Fatalf("%v: %s: %v vs %v", mode, a.NodeName(r.Var), objs, want)
				}
			}
		}
	}
}

func TestPublicAPISharedState(t *testing.T) {
	a := newVectorAnalyzer(t)
	sh := NewSharedStateWithThresholds(1, 1)
	s1 := a.LocalNode(3, 2)
	a.PointsTo(s1, EmptyContext, QueryOptions{Shared: sh})
	if sh.NumJumps() == 0 {
		t.Fatal("no jumps recorded through public API")
	}
	r := a.PointsTo(s1, EmptyContext, QueryOptions{Shared: sh})
	if r.JumpsTaken == 0 {
		t.Fatal("repeat query took no shortcut")
	}
	// The default-threshold constructor exists and suppresses tiny jumps.
	if st := NewSharedState(); st == nil {
		t.Fatal("NewSharedState returned nil")
	}
}

func TestPublicAPIAndersen(t *testing.T) {
	a := newVectorAnalyzer(t)
	and := a.Andersen()
	s1 := a.LocalNode(3, 2)
	// Context-insensitive conflation: both strings and integers.
	if got := len(and.PointsTo(s1)); got != 2 {
		t.Fatalf("Andersen |pts(s1)| = %d, want 2", got)
	}
	// Demand answer is a strict subset here.
	dem := a.PointsTo(s1, EmptyContext, QueryOptions{})
	if len(dem.Objects()) >= len(and.PointsTo(s1)) {
		t.Fatal("demand-driven answer not more precise than Andersen on Fig. 2")
	}
}

func TestPublicAPIInvalidProgram(t *testing.T) {
	p := vectorProgram()
	p.Methods[0].Body[0].Dst = Local(99)
	if _, err := NewAnalyzer(p); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestPublicAPIMetadata(t *testing.T) {
	a := newVectorAnalyzer(t)
	if a.NumNodes() == 0 || a.NumEdges() == 0 {
		t.Fatal("graph counters empty")
	}
	if a.Program() == nil {
		t.Fatal("Program() nil")
	}
	if name := a.NodeName(a.LocalNode(3, 0)); name != "main.v1" {
		t.Fatalf("NodeName = %q", name)
	}
	lv := a.TypeLevels()
	if lv[5] != 3 { // Vector
		t.Fatalf("L(Vector) = %d, want 3", lv[5])
	}
}

func TestPublicAPIRefinement(t *testing.T) {
	a := newVectorAnalyzer(t)
	s1 := a.LocalNode(3, 2)
	o16 := a.ObjectNodes(3)[1]

	out := a.PointsToRefined(s1, EmptyContext, RefineOptions{})
	if !out.Converged {
		t.Fatalf("refinement did not converge: %+v", out)
	}
	got := out.Final.Objects()
	if len(got) != 1 || got[0] != o16 {
		t.Fatalf("refined pts(s1) = %v, want [o16]", got)
	}

	// A weak client (set size <= 2 is fine) stops on the cheap first pass.
	weak := a.PointsToRefined(s1, EmptyContext, RefineOptions{
		Satisfied: func(r Result) bool { return len(r.Objects()) <= 2 },
	})
	if weak.Passes != 1 {
		t.Fatalf("weak client took %d passes", weak.Passes)
	}
	if weak.TotalSteps >= out.TotalSteps {
		t.Fatalf("weak client cost %d not below full refinement %d", weak.TotalSteps, out.TotalSteps)
	}
}

func TestPublicAPIExplain(t *testing.T) {
	a := newVectorAnalyzer(t)
	s1 := a.LocalNode(3, 2)
	o16 := a.ObjectNodes(3)[1]
	steps, ok := a.Explain(s1, EmptyContext, o16, QueryOptions{})
	if !ok || len(steps) < 3 {
		t.Fatalf("Explain = %v, %v", steps, ok)
	}
	if steps[0].Edge != "query" || steps[len(steps)-1].Edge != "new" {
		t.Fatalf("Explain endpoints: %v", steps)
	}
	if _, ok := a.Explain(s1, EmptyContext, a.ObjectNodes(3)[3], QueryOptions{}); ok {
		t.Fatal("Explain invented a fact")
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	a, err := NewIncrementalAnalyzer(vectorProgram(), 75000)
	if err != nil {
		t.Fatal(err)
	}
	s1 := a.LocalNode(3, 2)
	o16 := a.ObjectNodes(3)[1]
	r := a.QueryPointsTo(s1, EmptyContext)
	if got := r.Objects(); len(got) != 1 || got[0] != o16 {
		t.Fatalf("pts(s1) = %v", got)
	}

	// Growing edit: a new object assigned directly into s1.
	oNew := a.AddObjectNode("oNew", 1)
	a.Apply(GraphEdit{AddEdges: []GraphEdge{{Dst: s1, Src: oNew, Kind: EdgeNew}}})
	r2 := a.QueryPointsTo(s1, EmptyContext)
	found := map[NodeID]bool{}
	for _, o := range r2.Objects() {
		found[o] = true
	}
	if !found[o16] || !found[oNew] {
		t.Fatalf("after edit pts(s1) = %v, want {o16, oNew}", r2.Objects())
	}

	// Shrinking edit: remove the direct new edge again; the answer keeps
	// o16 and (being a pure removal with retained cache) must still be a
	// superset of the exact answer.
	a.Apply(GraphEdit{RemoveEdges: []GraphEdge{{Dst: s1, Src: oNew, Kind: EdgeNew}}})
	r3 := a.QueryPointsTo(s1, EmptyContext)
	has16 := false
	for _, o := range r3.Objects() {
		if o == o16 {
			has16 = true
		}
	}
	if !has16 {
		t.Fatalf("after removal pts(s1) = %v lost o16", r3.Objects())
	}
}

func TestPublicAPIResultCache(t *testing.T) {
	a := newVectorAnalyzer(t)
	s1 := a.LocalNode(3, 2)
	cache := NewResultCache()
	r1 := a.PointsTo(s1, EmptyContext, QueryOptions{Cache: cache})
	r2 := a.PointsTo(s1, EmptyContext, QueryOptions{Cache: cache})
	if len(r1.Objects()) != 1 || len(r2.Objects()) != 1 || r1.Objects()[0] != r2.Objects()[0] {
		t.Fatalf("cache changed answers: %v vs %v", r1.Objects(), r2.Objects())
	}
	if r2.Steps >= r1.Steps {
		t.Fatalf("warm cached query not cheaper: %d vs %d", r2.Steps, r1.Steps)
	}
	// Batch mode with the cache enabled agrees with the plain batch.
	queries := a.ApplicationQueryVars()
	plain, _ := a.RunBatch(queries, BatchOptions{Mode: Sequential})
	cachedRes, st := a.RunBatch(queries, BatchOptions{Mode: SharingScheduling, Threads: 4, ResultCache: true})
	if st.Cache.Published == 0 {
		t.Fatal("batch cache published nothing")
	}
	byVar := map[NodeID]int{}
	for _, r := range plain {
		byVar[r.Var] = len(r.Objects)
	}
	for _, r := range cachedRes {
		if byVar[r.Var] != len(r.Objects) {
			t.Fatalf("%s: cached batch |pts|=%d vs %d", a.NodeName(r.Var), len(r.Objects), byVar[r.Var])
		}
	}
}

func TestPublicAPICProgramAndGo(t *testing.T) {
	// C facade.
	cprog := &CProgram{
		Funcs: []CFunc{{
			Name: "main", Application: true, Ret: -1,
			Locals: []CLocal{
				{Name: "x", Struct: -1}, // 0, addr-taken
				{Name: "p", Struct: -1}, // 1
				{Name: "v", Struct: -1}, // 2
			},
			Body: []CStmt{
				{Kind: CAddr, Dst: 1, Src: 0},
				{Kind: CMalloc, Dst: 2},
				{Kind: CStore, Base: 1, Src: 2},
			},
		}},
	}
	ca, err := NewCAnalyzer(cprog)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ca.CAddrNode(0, 0); !ok {
		t.Fatal("x should be address-taken")
	}
	if _, ok := ca.CAddrNode(0, 2); ok {
		t.Fatal("v is not address-taken")
	}
	v := ca.CLocalNode(0, 2)
	if r := ca.PointsTo(v, EmptyContext, QueryOptions{}); len(r.Objects()) != 1 {
		t.Fatalf("pts(v) = %v", r.Objects())
	}

	// Go facade.
	gprog, err := ParseGoProgram("package m\ntype T struct{ n int }\nfunc f() { x := &T{}; _ = x }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalyzer(gprog); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseGoProgram("package m\nfunc (t T) m() {}"); err == nil {
		t.Fatal("methods should be rejected")
	}

	// Summarize facade.
	sprog, err := ParseProgram(`
type O {}
func base(x: O): O { return x; }
func wrap(x: O): O { var r: O = base(x); return r; }
func main() application { var a: O = new O; var b: O = wrap(a); }
`)
	if err != nil {
		t.Fatal(err)
	}
	// wrap is not a trivial forwarder (two statements after lowering), so
	// build one that is.
	_ = sprog
	fwd := vectorProgram()
	fwd.Methods = append(fwd.Methods, Method{
		Name:   "getFwd",
		Locals: []LocalVar{{Name: "this", Type: 5}, {Name: "r", Type: 1}},
		Params: []int{0}, Ret: 1,
		Body: []Stmt{
			{Kind: StCall, Callee: 2, Args: []VarRef{Local(0)}, Dst: Local(1)},
		},
	})
	st := Summarize(fwd)
	if st.Forwarders != 1 {
		t.Fatalf("Summarize stats = %+v", st)
	}
}

func TestPublicAPIGlobals(t *testing.T) {
	p := vectorProgram()
	p.Globals = append(p.Globals, GlobalVar{Name: "G", Type: 5})
	a, err := NewAnalyzer(p)
	if err != nil {
		t.Fatal(err)
	}
	g := a.GlobalNode(0)
	if a.NodeName(g) != "G" {
		t.Fatalf("GlobalNode name = %q", a.NodeName(g))
	}
	if ref := Global(0); !ref.Global || ref.Index != 0 {
		t.Fatalf("Global(0) = %+v", ref)
	}
}

func TestPublicAPIIncrementalHelpers(t *testing.T) {
	a, err := NewIncrementalAnalyzer(vectorProgram(), 75000)
	if err != nil {
		t.Fatal(err)
	}
	l := a.AddLocalNode("fresh", 1)
	o := a.AddObjectNode("oFresh", 1)
	a.Apply(GraphEdit{AddEdges: []GraphEdge{{Dst: l, Src: o, Kind: EdgeNew}}})
	if r := a.QueryPointsTo(l, EmptyContext); len(r.Objects()) != 1 {
		t.Fatalf("pts(fresh) = %v", r.Objects())
	}
	if a.CachedJumps() < 0 {
		t.Fatal("CachedJumps negative")
	}
}
