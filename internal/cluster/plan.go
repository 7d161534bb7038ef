// Package cluster partitions the query space of a PAG across N serving
// replicas ("shards") and carries the shared plan both sides of the split
// need: the daemon side (which queries a replica owns, which slice of a warm
// snapshot it restores) and the router side (which replica a query variable
// must be sent to).
//
// The partition key is the connected component of the direct relation —
// sched.ComponentMap. Components are a placement choice, not an isolation
// boundary: a traversal's direct-relation walk stays inside its component,
// but matching a load against the stores of its base's aliases follows
// ld/st edges into other components, so jmp edges do cross component
// boundaries. A query therefore reads and writes jmp-store and
// result-cache entries keyed by nodes that another shard owns, and two
// shards can hold entries for the same key (TestJmpKeysCrossComponents).
//
// Sharding is correct because both stores are caches: an entry only
// shortcuts a walk the replica could take itself, so a missing or
// duplicated entry changes the steps a query is charged, never the facts
// of a completed answer. There is no cross-shard coherence to keep. What a
// shard gives up is the other shards' warm state: it may re-walk what they
// already recorded, and near the budget that can abort a query an
// unsharded warm daemon would answer.
//
// A Plan is deterministic for a given (graph, shard count): components are
// placed largest-first onto the least-loaded shard with index tie-breaks,
// so every replica, the router, and any later rebuild agree on the
// assignment without coordination.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"parcfl/internal/pag"
	"parcfl/internal/sched"
)

// PlanSchema identifies the serialized shard-plan layout.
const PlanSchema = "parcfl-shardplan/v1"

// Plan is the component-to-shard assignment for one PAG. It is the single
// source of truth for query routing: the router maps variables to shards
// with it, each replica rejects queries it does not own against it, and a
// snapshot embeds it so a warm restart restores exactly its slice.
type Plan struct {
	Schema    string `json:"schema"`
	NumShards int    `json:"num_shards"`
	NumNodes  int    `json:"num_nodes"`
	// NumComponents is the number of direct-relation components partitioned.
	NumComponents int `json:"num_components"`
	// NodeShards[v] is the shard owning node v. Every node is assigned to
	// exactly one shard; co-component nodes always share a shard.
	NodeShards []int32 `json:"node_shards"`
	// Vars maps named nodes to their shard, first-name-wins over node ids —
	// the same resolution order the daemon's HTTP surface uses — so a
	// stateless router can route by wire name without loading the graph.
	Vars map[string]int32 `json:"vars"`
	// ShardSizes[s] is the node count owned by shard s (balance diagnostic).
	ShardSizes []int `json:"shard_sizes"`
}

// BuildPlan partitions g's nodes into n shards along direct-relation
// component boundaries. Components are sorted by size descending (canonical
// representative id as tie-break) and greedily placed on the currently
// smallest shard (lowest index on ties) — the LPT rule, deterministic and
// within 4/3 of a perfectly balanced split.
func BuildPlan(g *pag.Graph, n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", n)
	}
	comp := sched.ComponentMap(g)
	numNodes := g.NumNodes()

	// Component sizes, keyed by representative node id.
	size := make(map[int32]int)
	for _, c := range comp {
		size[c]++
	}
	reps := make([]int32, 0, len(size))
	for c := range size {
		reps = append(reps, c)
	}
	sort.Slice(reps, func(i, j int) bool {
		if size[reps[i]] != size[reps[j]] {
			return size[reps[i]] > size[reps[j]]
		}
		return reps[i] < reps[j]
	})

	// LPT placement: largest component onto the least-loaded shard.
	assign := make(map[int32]int32, len(reps))
	load := make([]int, n)
	for _, c := range reps {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[c] = int32(best)
		load[best] += size[c]
	}

	p := &Plan{
		Schema:        PlanSchema,
		NumShards:     n,
		NumNodes:      numNodes,
		NumComponents: len(reps),
		NodeShards:    make([]int32, numNodes),
		Vars:          make(map[string]int32),
		ShardSizes:    load,
	}
	for v := 0; v < numNodes; v++ {
		p.NodeShards[v] = assign[comp[v]]
		if name := g.Node(pag.NodeID(v)).Name; name != "" {
			if _, ok := p.Vars[name]; !ok {
				p.Vars[name] = p.NodeShards[v]
			}
		}
	}
	return p, nil
}

// ShardOf returns the shard owning node v (-1 for out-of-range ids).
func (p *Plan) ShardOf(v pag.NodeID) int {
	if v < 0 || int(v) >= len(p.NodeShards) {
		return -1
	}
	return int(p.NodeShards[v])
}

// ShardOfVar resolves a wire-format variable (name, with decimal node id as
// fallback — the daemon's own resolution order) to its shard.
func (p *Plan) ShardOfVar(name string) (int, bool) {
	if s, ok := p.Vars[name]; ok {
		return int(s), true
	}
	var id int
	if _, err := fmt.Sscanf(name, "%d", &id); err == nil && id >= 0 && id < len(p.NodeShards) {
		return int(p.NodeShards[id]), true
	}
	return 0, false
}

// Validate checks the plan's internal invariants: schema, shard-count
// bounds, every node assigned to exactly one in-range shard, and shard
// sizes consistent with the assignment.
func (p *Plan) Validate() error {
	if p.Schema != PlanSchema {
		return fmt.Errorf("cluster: plan schema %q (this build reads %s)", p.Schema, PlanSchema)
	}
	if p.NumShards < 1 {
		return fmt.Errorf("cluster: plan has %d shards", p.NumShards)
	}
	if len(p.NodeShards) != p.NumNodes {
		return fmt.Errorf("cluster: plan covers %d nodes, header says %d", len(p.NodeShards), p.NumNodes)
	}
	sizes := make([]int, p.NumShards)
	for v, s := range p.NodeShards {
		if s < 0 || int(s) >= p.NumShards {
			return fmt.Errorf("cluster: node %d assigned to out-of-range shard %d", v, s)
		}
		sizes[s]++
	}
	if len(p.ShardSizes) != p.NumShards {
		return fmt.Errorf("cluster: plan has %d shard sizes for %d shards", len(p.ShardSizes), p.NumShards)
	}
	for s, n := range sizes {
		if p.ShardSizes[s] != n {
			return fmt.Errorf("cluster: shard %d size %d does not match assignment (%d)", s, p.ShardSizes[s], n)
		}
	}
	for name, s := range p.Vars {
		if s < 0 || int(s) >= p.NumShards {
			return fmt.Errorf("cluster: var %q assigned to out-of-range shard %d", name, s)
		}
	}
	return nil
}

// Matches verifies the plan was built for (an identical copy of) g: same
// node count, and no direct-relation component split across shards. A
// replica refuses to serve under a plan that fails this — a router working
// from a different plan would route queries to replicas that disown them.
func (p *Plan) Matches(g *pag.Graph) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if g.NumNodes() != p.NumNodes {
		return fmt.Errorf("cluster: plan built for %d nodes, graph has %d", p.NumNodes, g.NumNodes())
	}
	comp := sched.ComponentMap(g)
	shardOfComp := make(map[int32]int32, p.NumComponents)
	for v, c := range comp {
		s := p.NodeShards[v]
		if prev, ok := shardOfComp[c]; !ok {
			shardOfComp[c] = s
		} else if prev != s {
			return fmt.Errorf("cluster: component of node %d split across shards %d and %d", v, prev, s)
		}
	}
	return nil
}

// Encode serialises the plan as its canonical JSON form.
func (p *Plan) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding plan: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodePlan parses and validates a serialized plan.
func DecodePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("cluster: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// SavePlan writes the plan to path atomically.
func SavePlan(path string, p *Plan) error {
	data, err := p.Encode()
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// LoadPlan reads and validates the plan at path.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return DecodePlan(data)
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so a concurrent reader (a smoke script polling an -addr-file, the
// router loading a plan) never observes a partial write.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
