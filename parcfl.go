// Package parcfl is a parallel, demand-driven pointer analysis library based
// on CFL-reachability, reproducing "Parallel Pointer Analysis with
// CFL-Reachability" (Su, Ye, Xue; ICPP 2014).
//
// The library answers points-to, flows-to and alias queries over Java-like
// programs with full context- and field-sensitivity. Queries are budgeted
// graph traversals over a Pointer Assignment Graph (PAG); batches of queries
// run in parallel across goroutines, accelerated by the paper's two
// techniques:
//
//   - data sharing: alias expansions discovered by one query are recorded
//     as jmp shortcut edges that other queries (in any worker) reuse;
//   - query scheduling: batches are grouped by the direct-assignment
//     relation and ordered by connection distance and dependence depth so
//     shortcuts exist by the time dependent queries run.
//
// # Building a program
//
// Programs are written in a miniature Java-like IR: declare types with
// reference fields, globals, and methods whose bodies contain allocation,
// assignment, field load/store and (pre-resolved) call statements. See
// examples/quickstart for a complete walkthrough of the paper's running
// example.
//
// # Querying
//
// NewAnalyzer validates and lowers a Program to its PAG. Single queries run
// via PointsTo/FlowsTo/Alias; batch workloads run via RunBatch, which
// selects one of the paper's four configurations (Sequential, Naive,
// Sharing, SharingScheduling) and a worker count.
package parcfl

import (
	"parcfl/internal/andersen"
	"parcfl/internal/cfl"
	"parcfl/internal/frontend"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

// IR surface: these aliases make the program-construction types part of the
// public API without duplicating them.
type (
	// Program is a whole mini-Java program: types, globals, methods.
	Program = frontend.Program
	// Type declares a (reference or primitive) type with its fields.
	Type = frontend.Type
	// Field is one instance field of a reference type.
	Field = frontend.Field
	// Method is one method: locals, params, return slot, body.
	Method = frontend.Method
	// Stmt is one statement of a method body.
	Stmt = frontend.Stmt
	// StmtKind discriminates Stmt.
	StmtKind = frontend.StmtKind
	// LocalVar is a local variable slot.
	LocalVar = frontend.LocalVar
	// GlobalVar is a static variable.
	GlobalVar = frontend.GlobalVar
	// VarRef names a local slot or a global.
	VarRef = frontend.VarRef

	// NodeID identifies a PAG node (variable or object).
	NodeID = pag.NodeID
	// Context is a calling-context string (stack of call sites).
	Context = pag.Context
	// NodeCtx is a (node, context) pair, the element type of
	// context-sensitive result sets.
	NodeCtx = pag.NodeCtx
	// FieldID identifies a field program-wide.
	FieldID = pag.FieldID
	// TypeID identifies a declared type.
	TypeID = pag.TypeID
	// CallSiteID identifies a call site.
	CallSiteID = pag.CallSiteID
	// Label is an edge label: a FieldID on ld/st edges, a CallSiteID on
	// param/ret edges.
	Label = pag.Label
)

// Statement kinds.
const (
	StAlloc  = frontend.StAlloc
	StAssign = frontend.StAssign
	StLoad   = frontend.StLoad
	StStore  = frontend.StStore
	StCall   = frontend.StCall
)

// ArrField is the collapsed pseudo-field for array elements.
const ArrField = pag.ArrField

// UntypedType marks nodes without a meaningful static type.
const UntypedType = pag.UntypedType

// NoVar marks an absent statement operand.
var NoVar = frontend.NoVar

// EmptyContext is the empty calling context.
var EmptyContext = pag.EmptyContext

// Local references local slot i of the enclosing method.
func Local(i int) VarRef { return frontend.Local(i) }

// Global references global variable i.
func Global(i int) VarRef { return frontend.Global(i) }

// Result is the outcome of a single demand query. PointsTo holds (object,
// context) pairs for points-to queries and (variable, context) pairs for
// flows-to queries; Objects() projects to allocation sites.
type Result = cfl.Result

// Analyzer owns a lowered program and answers queries over it. It is
// immutable after construction and safe for concurrent use, except that a
// single SharedState must not be reused across different Analyzers.
type Analyzer struct {
	prog *Program
	lo   *frontend.Lowered
}

// NewAnalyzer validates p and lowers it to a PAG (collapsing recursion
// cycles of the call graph, as the paper does).
func NewAnalyzer(p *Program) (*Analyzer, error) {
	lo, err := frontend.Lower(p)
	if err != nil {
		return nil, err
	}
	return &Analyzer{prog: p, lo: lo}, nil
}

// Program returns the analysed program.
func (a *Analyzer) Program() *Program { return a.prog }

// NumNodes returns the PAG node count.
func (a *Analyzer) NumNodes() int { return a.lo.Graph.NumNodes() }

// NumEdges returns the PAG edge count.
func (a *Analyzer) NumEdges() int { return a.lo.Graph.NumEdges() }

// LocalNode returns the PAG node of local slot `slot` of method `method`
// (indexes into Program.Methods and Method.Locals).
func (a *Analyzer) LocalNode(method, slot int) NodeID { return a.lo.LocalNode[method][slot] }

// GlobalNode returns the PAG node of global i.
func (a *Analyzer) GlobalNode(i int) NodeID { return a.lo.GlobalNode[i] }

// ObjectNodes returns the allocation-site nodes of method m in statement
// order.
func (a *Analyzer) ObjectNodes(method int) []NodeID {
	return append([]NodeID(nil), a.lo.ObjectNode[method]...)
}

// ApplicationQueryVars returns the PAG nodes of all locals declared in
// methods marked Application — the paper's standard query batch.
func (a *Analyzer) ApplicationQueryVars() []NodeID {
	return append([]NodeID(nil), a.lo.AppQueryVars...)
}

// NodeName returns a node's diagnostic name (e.g. "main.v1" or "o@main:0").
func (a *Analyzer) NodeName(v NodeID) string { return a.lo.Graph.Node(v).Name }

// TypeLevels returns L(t) per TypeID (Section III-C2), as used by the
// scheduler's dependence-depth heuristic.
func (a *Analyzer) TypeLevels() []int { return append([]int(nil), a.lo.TypeLevels...) }

// SharedState is a jmp-edge store shared across queries and workers — the
// data-sharing scheme of Section III-B. Create one per analysis session and
// pass it to successive queries (or let RunBatch manage one internally).
type SharedState struct {
	store *share.Store
}

// NewSharedState creates a store with the paper's selective-insertion
// thresholds (tauF=100, tauU=10000).
func NewSharedState() *SharedState {
	return &SharedState{store: share.NewStore(share.DefaultConfig())}
}

// NewSharedStateWithThresholds creates a store with explicit thresholds.
// tauF/tauU of 0 insert every jmp edge.
func NewSharedStateWithThresholds(tauF, tauU int) *SharedState {
	return &SharedState{store: share.NewStore(share.Config{TauF: tauF, TauU: tauU, Shards: 64})}
}

// NumJumps returns the number of jmp edges recorded so far.
func (s *SharedState) NumJumps() int64 { return s.store.NumJumps() }

// ResultCache shares whole memoised traversal results across queries — the
// "ad-hoc caching" optimisation of the sequential implementations the paper
// builds on. Safe for concurrent use by many queries and workers.
type ResultCache struct {
	c *ptcache.Cache
}

// NewResultCache creates an empty cache.
func NewResultCache() *ResultCache { return &ResultCache{c: ptcache.New(64)} }

// QueryOptions configures a single demand query.
type QueryOptions struct {
	// Budget bounds the traversal in steps; 0 means unbounded.
	Budget int
	// Shared enables data sharing against the given state; nil disables.
	Shared *SharedState
	// Cache enables cross-query result caching; nil disables.
	Cache *ResultCache
	// ContextK k-limits call strings to the newest K call sites (a sound
	// over-approximation that can trade precision for speed); 0 keeps
	// full call strings, the paper's configuration.
	ContextK int
}

func (a *Analyzer) solver(o QueryOptions) *cfl.Solver {
	cfg := cfl.Config{Budget: o.Budget, ContextK: o.ContextK}
	if o.Shared != nil {
		cfg.Share = o.Shared.store
	}
	if o.Cache != nil {
		cfg.Cache = o.Cache.c
	}
	return cfl.New(a.lo.Graph, cfg)
}

// PointsTo computes the (object, context) pairs variable v may point to
// under context ctx.
func (a *Analyzer) PointsTo(v NodeID, ctx Context, o QueryOptions) Result {
	return a.solver(o).PointsTo(v, ctx)
}

// FlowsTo computes the (variable, context) pairs object obj flows to.
func (a *Analyzer) FlowsTo(obj NodeID, ctx Context, o QueryOptions) Result {
	return a.solver(o).FlowsTo(obj, ctx)
}

// Alias reports whether x and y may alias (their points-to sets intersect on
// an allocation site). ok is false if either sub-query ran out of budget;
// the answer then comes from partial sets, which under-approximate the true
// ones, so alias=true still names a shared allocation site but alias=false
// means unknown, not "no alias".
func (a *Analyzer) Alias(x, y NodeID, ctx Context, o QueryOptions) (alias, ok bool) {
	return a.solver(o).Alias(x, y, ctx)
}

// Andersen runs the whole-program, context-insensitive Andersen baseline,
// returning its points-to sets (always a superset of the demand-driven
// answers).
func (a *Analyzer) Andersen() *WholeProgram {
	return andersen.Analyze(a.lo.Graph)
}

// WholeProgram is the result of Andersen's whole-program analysis.
type WholeProgram = andersen.Result

// WitnessStep is one hop of a points-to explanation (see Explain).
type WitnessStep = cfl.WitnessStep

// Explain answers "why does v (under ctx) point to obj?" with the chain of
// PAG hops the analysis derived the fact from: the query variable, the
// assignments/param/ret edges traversed (with call sites), summarised heap
// hops, and the allocation site. Returns ok=false if the fact does not
// hold. Budgets apply as in PointsTo.
func (a *Analyzer) Explain(v NodeID, ctx Context, obj NodeID, o QueryOptions) ([]WitnessStep, bool) {
	return a.solver(o).Explain(v, ctx, obj)
}

// ExplainFlows is the forward mirror of Explain: "why does obj (under ctx)
// flow to v?" as the chain of hops from the allocation site to the
// variable. Returns ok=false if the fact does not hold.
func (a *Analyzer) ExplainFlows(obj NodeID, ctx Context, v NodeID, o QueryOptions) ([]WitnessStep, bool) {
	return a.solver(o).ExplainFlows(obj, ctx, v)
}
