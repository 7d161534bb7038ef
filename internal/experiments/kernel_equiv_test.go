package experiments

import (
	"reflect"
	"testing"

	"parcfl/internal/cfl"
	"parcfl/internal/engine"
	"parcfl/internal/javagen"
	"parcfl/internal/kernel"
	"parcfl/internal/pag"
	"parcfl/internal/share"
)

// stripProf clears the attribution pointers so result slices can be compared
// structurally (the breakdowns are compared via their conservation sums).
func stripProf(rs []engine.QueryResult) []engine.QueryResult {
	out := append([]engine.QueryResult(nil), rs...)
	for i := range out {
		out[i].Prof = nil
	}
	return out
}

// TestKernelModeEquivalence is the kernel-mode contract: over every bench
// preset, a sequential batch run with the kernel enabled returns results
// byte-identical to the node-at-a-time solver — same objects, same context
// counts, same step counts, same abort flags — and the profile conservation
// invariant (Prof.Sum() == Steps) holds in kernel mode.
func TestKernelModeEquivalence(t *testing.T) {
	for _, name := range benchDefaults {
		t.Run(name, func(t *testing.T) {
			pr, err := javagen.PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := PrepareBench(pr, 0.004)
			if err != nil {
				t.Fatal(err)
			}
			prep := kernel.Build(b.Lowered.Graph)
			base := engine.Config{Mode: engine.Seq, Budget: 75000, Profile: true}
			kcfg := base
			kcfg.Kernel = prep

			plain, plainStats := engine.Run(b.Lowered.Graph, b.Queries, base)
			kern, kernStats := engine.Run(b.Lowered.Graph, b.Queries, kcfg)

			if !reflect.DeepEqual(stripProf(plain), stripProf(kern)) {
				t.Fatal("kernel-mode results differ from node-at-a-time results")
			}
			if plainStats.TotalSteps != kernStats.TotalSteps {
				t.Fatalf("step totals differ: %d vs %d", plainStats.TotalSteps, kernStats.TotalSteps)
			}
			for i := range kern {
				if kern[i].Prof == nil {
					t.Fatalf("query %d: no attribution in kernel mode", i)
				}
				if got, want := kern[i].Prof.Sum(), int64(kern[i].Steps); got != want {
					t.Fatalf("query %d: conservation violated in kernel mode: Sum()=%d Steps=%d", i, got, want)
				}
			}
		})
	}
}

// TestKernelModeEquivalenceSharing repeats the contract with the jmp-edge
// data sharing of Algorithm 2 enabled, single-threaded (one worker makes
// record/take order deterministic, so the two runs must agree exactly —
// including early terminations, jumps taken and steps saved).
func TestKernelModeEquivalenceSharing(t *testing.T) {
	pr, err := javagen.PresetByName(benchDefaults[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareBench(pr, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	prep := kernel.Build(b.Lowered.Graph)
	run := func(kern *kernel.Prep) []cfl.Result {
		st := share.NewStore(share.DefaultConfig())
		s := cfl.New(b.Lowered.Graph, cfl.Config{Budget: 75000, Share: st, Kernel: kern})
		out := make([]cfl.Result, 0, len(b.Queries))
		for _, v := range b.Queries {
			out = append(out, s.PointsTo(v, pag.EmptyContext))
		}
		return out
	}
	if !reflect.DeepEqual(run(nil), run(prep)) {
		t.Fatal("kernel-mode results with sharing differ from node-at-a-time results")
	}
}

// TestKernelModeWitnessEquivalence checks the collapsed↔original mapping
// contract end to end: witness paths reconstructed in kernel mode are
// step-for-step identical to the plain solver's, reported in original node
// IDs.
func TestKernelModeWitnessEquivalence(t *testing.T) {
	pr, err := javagen.PresetByName(benchDefaults[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareBench(pr, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Lowered.Graph
	prep := kernel.Build(g)
	plain := cfl.New(g, cfl.Config{Budget: 75000})
	kern := cfl.New(g, cfl.Config{Budget: 75000, Kernel: prep})

	witnesses := 0
	for _, v := range b.Queries {
		if witnesses >= 25 {
			break
		}
		r := plain.PointsTo(v, pag.EmptyContext)
		if r.Aborted || len(r.PointsTo) == 0 {
			continue
		}
		for _, oc := range r.PointsTo[:1] {
			pw, pok := plain.Explain(v, pag.EmptyContext, oc.Node)
			kw, kok := kern.Explain(v, pag.EmptyContext, oc.Node)
			if pok != kok || !reflect.DeepEqual(pw, kw) {
				t.Fatalf("witness for var %d obj %d differs between modes:\nplain: %v (%v)\nkernel: %v (%v)",
					v, oc.Node, pw, pok, kw, kok)
			}
			if pok {
				witnesses++
			}
			// The inverse direction through the same pair.
			pf, pfok := plain.ExplainFlows(oc.Node, oc.Ctx, v)
			kf, kfok := kern.ExplainFlows(oc.Node, oc.Ctx, v)
			if pfok != kfok || !reflect.DeepEqual(pf, kf) {
				t.Fatalf("flows witness for obj %d var %d differs between modes", oc.Node, v)
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no witnesses exercised; preset or scale too small")
	}
}
