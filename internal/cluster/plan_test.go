package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/pag"
	"parcfl/internal/sched"
	"parcfl/internal/server"
	"parcfl/internal/share"
	"parcfl/internal/snapshot"
)

func genBench(t testing.TB) *frontend.Lowered {
	t.Helper()
	prg, err := javagen.Generate(javagen.Params{
		Name: "clustertest", Seed: 41, Containers: 3, CallDepth: 3,
		PayloadClasses: 4, PayloadFieldDepth: 3, AppMethods: 12, OpsPerApp: 12,
		Globals: 3, AppCallFanout: 1, HubFields: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestPlanCoversEveryNodeExactlyOnce is the partition property: for any
// shard count, every node is assigned to exactly one in-range shard and the
// shard sizes sum back to the node count.
func TestPlanCoversEveryNodeExactlyOnce(t *testing.T) {
	g := genBench(t).Graph
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		p, err := BuildPlan(g, n)
		if err != nil {
			t.Fatalf("BuildPlan(%d): %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(p.NodeShards) != g.NumNodes() {
			t.Fatalf("n=%d: plan covers %d of %d nodes", n, len(p.NodeShards), g.NumNodes())
		}
		total := 0
		for s, size := range p.ShardSizes {
			if size < 0 {
				t.Fatalf("n=%d: negative size for shard %d", n, s)
			}
			total += size
		}
		if total != g.NumNodes() {
			t.Fatalf("n=%d: shard sizes sum to %d, want %d", n, total, g.NumNodes())
		}
		for v, s := range p.NodeShards {
			if s < 0 || int(s) >= n {
				t.Fatalf("n=%d: node %d assigned out-of-range shard %d", n, v, s)
			}
		}
	}
}

// TestPlanKeepsComponentsWhole: co-component nodes must always land on the
// same shard, so a query's direct-relation walk stays on the shard that
// owns it. This is placement, not isolation: alias matching leaves the
// component (TestJmpKeysCrossComponents), and shard correctness rests on
// the stores being caches.
func TestPlanKeepsComponentsWhole(t *testing.T) {
	g := genBench(t).Graph
	comp := sched.ComponentMap(g)
	for _, n := range []int{2, 4} {
		p, err := BuildPlan(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Matches(g); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		shardOf := map[int32]int32{}
		for v, c := range comp {
			if prev, ok := shardOf[c]; ok && prev != p.NodeShards[v] {
				t.Fatalf("n=%d: component %d split across shards %d and %d", n, c, prev, p.NodeShards[v])
			}
			shardOf[c] = p.NodeShards[v]
		}
	}
}

// TestJmpKeysCrossComponents pins that jmp edges do cross component
// boundaries: a single-variable D query records jmp-store entries keyed by
// nodes outside the variable's sched.ComponentMap component, because
// matching a load against the stores of its base's aliases walks ld/st
// edges into other components. Shard stores are therefore not disjoint,
// and no code may rely on a component keeping its store entries private.
func TestJmpKeysCrossComponents(t *testing.T) {
	lo := genBench(t)
	comp := sched.ComponentMap(lo.Graph)
	total, outside := 0, 0
	for _, v := range lo.AppQueryVars {
		store := share.NewStore(share.DefaultConfig())
		engine.Run(lo.Graph, []pag.NodeID{v}, engine.Config{
			Mode: engine.D, Threads: 1, TypeLevels: lo.TypeLevels, Store: store,
		})
		_, entries := store.Export()
		for _, e := range entries {
			total++
			if comp[e.Key.Node] != comp[v] {
				outside++
			}
		}
	}
	if total == 0 {
		t.Fatal("no jmp entries recorded; the program is too small to test")
	}
	if outside == 0 {
		t.Fatalf("all %d jmp entries keyed inside their query's component; the test program no longer crosses components", total)
	}
	t.Logf("%d of %d jmp entries keyed outside the queried variable's component", outside, total)
}

// TestPlanDeterministic: the same (graph, n) must always produce the same
// plan, byte for byte — replicas and routers built at different times have
// to agree without coordination.
func TestPlanDeterministic(t *testing.T) {
	g := genBench(t).Graph
	a, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := BuildPlan(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rebuild %d differs", i)
		}
	}
	ea, _ := a.Encode()
	b, _ := BuildPlan(g, 4)
	eb, _ := b.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatal("encoded plans differ between identical builds")
	}
}

// TestPlanBalance: LPT placement must not leave a shard empty while another
// holds everything, as long as there are at least n components.
func TestPlanBalance(t *testing.T) {
	g := genBench(t).Graph
	p, err := BuildPlan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumComponents < 2 {
		t.Skipf("graph has %d components; need >=2", p.NumComponents)
	}
	for s, size := range p.ShardSizes {
		if size == 0 {
			t.Fatalf("shard %d empty with %d components to place: %v", s, p.NumComponents, p.ShardSizes)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	g := genBench(t).Graph
	p, err := BuildPlan(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := SavePlan(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatal("plan changed across save/load")
	}
	// A corrupted schema must be rejected.
	got.Schema = "parcfl-shardplan/v0"
	if err := got.Validate(); err == nil {
		t.Fatal("bad schema passed validation")
	}
}

// TestShardOfVar: names resolve through the Vars table, decimal node ids
// through the fallback, and both agree with NodeShards.
func TestShardOfVar(t *testing.T) {
	g := genBench(t).Graph
	p, err := BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for id := 0; id < g.NumNodes() && checked < 50; id++ {
		name := g.Node(pag.NodeID(id)).Name
		if name == "" {
			continue
		}
		s, ok := p.ShardOfVar(name)
		if !ok {
			t.Fatalf("name %q did not resolve", name)
		}
		if want := p.ShardOf(pag.NodeID(id)); s != want && p.Vars[name] != int32(s) {
			t.Fatalf("name %q resolved to shard %d, node says %d", name, s, want)
		}
		checked++
	}
	if s, ok := p.ShardOfVar("7"); !ok || s != p.ShardOf(7) {
		t.Fatalf("decimal fallback: got (%d,%v), want (%d,true)", s, ok, p.ShardOf(7))
	}
	if _, ok := p.ShardOfVar("no-such-variable-zzz"); ok {
		t.Fatal("unknown name resolved")
	}
}

// TestFilterSnapshot: slicing a warm snapshot keeps exactly the entries the
// plan assigns to each shard, the slices partition the whole store, and a
// replica warm-started from its slice answers its own queries identically.
func TestFilterSnapshot(t *testing.T) {
	lo := genBench(t)
	srv := server.New(lo.Graph, server.Config{
		Threads: 2, TypeLevels: lo.TypeLevels, BatchWindow: -1, ResultCache: true,
	})
	for _, v := range lo.AppQueryVars {
		if _, err := srv.Query(context.Background(), v); err != nil {
			t.Fatal(err)
		}
	}
	full := srv.Snapshot("test")
	srv.Close()
	_, fullStore := full.Store.Export()
	_, fullCache := full.Cache.Export()
	if len(fullStore) == 0 || len(fullCache) == 0 {
		t.Fatalf("warm snapshot too cold to test: %d store, %d cache entries", len(fullStore), len(fullCache))
	}

	p, err := BuildPlan(lo.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	storeTotal, cacheTotal := 0, 0
	for shard := 0; shard < 2; shard++ {
		sliced, err := FilterSnapshot(full, p, shard)
		if err != nil {
			t.Fatal(err)
		}
		if sliced.Meta.Shard != shard || sliced.Meta.NumShards != 2 {
			t.Fatalf("slice meta %d/%d, want %d/2", sliced.Meta.Shard, sliced.Meta.NumShards, shard)
		}
		if len(sliced.ShardPlan) == 0 {
			t.Fatal("slice lost the plan")
		}
		epoch, entries := sliced.Store.Export()
		if fullEpoch, _ := full.Store.Export(); epoch != fullEpoch {
			t.Fatalf("store epoch changed: %d -> %d", fullEpoch, epoch)
		}
		for _, e := range entries {
			if p.ShardOf(e.Key.Node) != shard {
				t.Fatalf("shard %d slice holds foreign store entry for node %d", shard, e.Key.Node)
			}
		}
		storeTotal += len(entries)
		_, centries := sliced.Cache.Export()
		for _, e := range centries {
			if p.ShardOf(e.Key.Node) != shard {
				t.Fatalf("shard %d slice holds foreign cache entry for node %d", shard, e.Key.Node)
			}
		}
		cacheTotal += len(centries)

		// Round-trip the slice through the file format and warm-start a
		// shard replica from it: owned queries must answer exactly as the
		// unsharded server did.
		path := filepath.Join(t.TempDir(), "slice.pag")
		if err := snapshot.Save(path, sliced); err != nil {
			t.Fatal(err)
		}
		loaded, err := snapshot.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Meta.Shard != shard || loaded.Meta.NumShards != 2 {
			t.Fatalf("loaded slice meta %d/%d", loaded.Meta.Shard, loaded.Meta.NumShards)
		}
		lp, err := DecodePlan(loaded.ShardPlan)
		if err != nil {
			t.Fatal(err)
		}
		replica := server.NewFromSnapshot(loaded, server.Config{
			Threads: 2, BatchWindow: -1,
			ShardOf: lp.ShardOf, ShardIndex: shard, ShardCount: lp.NumShards, ShardPlan: loaded.ShardPlan,
		})
		refSrv := server.New(lo.Graph, server.Config{Threads: 2, TypeLevels: lo.TypeLevels, BatchWindow: -1})
		for _, v := range lo.AppQueryVars {
			if p.ShardOf(v) != shard {
				if _, err := replica.Query(context.Background(), v); err == nil {
					t.Fatalf("replica %d accepted foreign var %d", shard, v)
				}
				continue
			}
			got, err := replica.Query(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSrv.Query(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Objects, want.Objects) || got.Contexts != want.Contexts {
				t.Fatalf("shard %d var %d: sliced answer differs from reference", shard, v)
			}
		}
		replica.Close()
		refSrv.Close()
	}
	if storeTotal != len(fullStore) {
		t.Fatalf("store slices hold %d entries, full store %d", storeTotal, len(fullStore))
	}
	if cacheTotal != len(fullCache) {
		t.Fatalf("cache slices hold %d entries, full cache %d", cacheTotal, len(fullCache))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("read %q", data)
	}
	dir, _ := os.ReadDir(filepath.Dir(path))
	if len(dir) != 1 {
		t.Fatalf("temp files left behind: %v", dir)
	}
}
