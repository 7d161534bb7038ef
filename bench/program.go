package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"parcfl/internal/andersen"
	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/pag"
	"parcfl/internal/server"
)

// program is one generated input: the lowered PAG and its query census in
// the generator's order.
type program struct {
	lo     *frontend.Lowered
	g      *pag.Graph
	census []pag.NodeID

	generateS, lowerS float64
}

// buildProgram generates and lowers a preset. The program's shape is fixed
// by the preset (its own name-derived generator seed), not by the run's
// seed: across generator seeds the same preset and scale walks between 9M
// and 16M steps, which would drown any regression bound, so the run's seed
// drives the census order, the arrivals and the variable draws instead.
func buildProgram(preset string, scale float64) (*program, error) {
	pr, err := javagen.PresetByName(preset)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	prg, err := javagen.Generate(pr.Params(scale))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	lo, err := frontend.Lower(prg)
	if err != nil {
		return nil, err
	}
	return &program{
		lo: lo, g: lo.Graph, census: lo.AppQueryVars,
		generateS: t1.Sub(t0).Seconds(), lowerS: time.Since(t1).Seconds(),
	}, nil
}

// shuffled returns the census in the order a seed gives it.
func shuffled(census []pag.NodeID, seed int64) []pag.NodeID {
	out := slices.Clone(census)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// answer is the reference outcome for one variable.
type answer struct {
	aborted bool
	objects []pag.NodeID // ascending
	names   []string     // ascending; what the HTTP surface returns
}

// reference maps every census variable to its batch answer.
type reference map[pag.NodeID]answer

func newReference(g *pag.Graph, results []engine.QueryResult) reference {
	ref := make(reference, len(results))
	for _, r := range results {
		a := answer{aborted: r.Aborted, objects: slices.Clone(r.Objects)}
		slices.Sort(a.objects)
		for _, o := range a.objects {
			a.names = append(a.names, g.Node(o).Name)
		}
		slices.Sort(a.names)
		ref[r.Var] = a
	}
	return ref
}

// verdict is how one reply compares with the reference.
type verdict uint8

const (
	// answered: completed on both sides and equal.
	answered verdict = iota
	// unanswered: aborted on either side, so there is nothing to compare.
	// It lowers answered_share and is not a failure.
	unanswered
	// wrong: completed on both sides and different, or not in the census.
	wrong
)

func (ref reference) checkResult(r engine.QueryResult) verdict {
	a, ok := ref[r.Var]
	switch {
	case !ok:
		return wrong
	case a.aborted || r.Aborted:
		return unanswered
	}
	objs := slices.Clone(r.Objects)
	slices.Sort(objs)
	if !slices.Equal(objs, a.objects) {
		return wrong
	}
	return answered
}

func (ref reference) checkWire(g *pag.Graph, v pag.NodeID, r server.VarResult) verdict {
	a, ok := ref[v]
	switch {
	case !ok || r.Failed || r.Var != g.Node(v).Name:
		return wrong
	case a.aborted || r.Aborted:
		return unanswered
	}
	names := slices.Clone(r.Objects)
	slices.Sort(names)
	if !slices.Equal(names, a.names) {
		return wrong
	}
	return answered
}

// digest hashes the sorted (variable, sorted objects) pairs of the queries
// that completed.
func digest(results []engine.QueryResult) string {
	lines := make([]string, 0, len(results))
	for _, r := range results {
		if r.Aborted {
			continue
		}
		objs := slices.Clone(r.Objects)
		slices.Sort(objs)
		var b strings.Builder
		fmt.Fprintf(&b, "%010d:", r.Var)
		for _, o := range objs {
			b.WriteString(strconv.Itoa(int(o)))
			b.WriteByte(',')
		}
		lines = append(lines, b.String())
	}
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

//go:embed golden/*.sha256
var goldenFS embed.FS

// checkGolden compares a census digest with the committed one. The
// generated program does not depend on the run's seed, so one digest per
// workload holds for every seed.
func checkGolden(workload, got string, update bool) error {
	path := "golden/" + workload + ".sha256"
	if update {
		if err := os.MkdirAll("golden", 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.FromSlash(path), []byte(got+"\n"), 0o644)
	}
	want, err := goldenFS.ReadFile(path)
	if err != nil {
		return fmt.Errorf("no golden digest for %s (run with -update-golden): %w", workload, err)
	}
	if w := strings.TrimSpace(string(want)); w != got {
		return fmt.Errorf("census digest %s differs from golden %s", got, w)
	}
	return nil
}

// checkAndersen counts completed answers that are not a subset of the
// whole-program Andersen result, which over-approximates every exact
// answer.
func checkAndersen(g *pag.Graph, results []engine.QueryResult) int {
	oracle := andersen.Analyze(g)
	bad := 0
	for _, r := range results {
		if r.Aborted {
			continue
		}
		super := oracle.PointsToSet(r.Var)
		for _, o := range r.Objects {
			if !super[o] {
				bad++
				break
			}
		}
	}
	return bad
}
