package cluster

import (
	"fmt"

	"parcfl/internal/ptcache"
	"parcfl/internal/share"
	"parcfl/internal/snapshot"
)

// FilterSnapshot slices an unsharded snapshot down to one shard's share of
// warm state: the full graph (every replica needs it to resolve names and
// validate the plan) with only the jmp-store and result-cache entries whose
// key node the plan assigns to shard. The slice is not lossless: jmp edges
// cross component boundaries, so the replica's own queries can reach keys
// on other shards, and those entries are dropped. Both stores are caches,
// so the replica recomputes a dropped entry when it needs one; its answers
// are unchanged and only the steps spent re-walking differ.
//
// The returned snapshot embeds the plan and stamps Meta.Shard/NumShards so
// a later warm start can verify it is restoring the slice it was given.
func FilterSnapshot(s *snapshot.Snapshot, p *Plan, shard int) (*snapshot.Snapshot, error) {
	if shard < 0 || shard >= p.NumShards {
		return nil, fmt.Errorf("cluster: shard %d out of range for %d-shard plan", shard, p.NumShards)
	}
	if s.Meta.NumShards != 0 {
		return nil, fmt.Errorf("cluster: snapshot is already sharded (%d/%d); slice from an unsharded snapshot",
			s.Meta.Shard, s.Meta.NumShards)
	}
	if err := p.Matches(s.Graph); err != nil {
		return nil, err
	}
	planBytes, err := p.Encode()
	if err != nil {
		return nil, err
	}
	out := &snapshot.Snapshot{Graph: s.Graph, Kernel: s.Kernel, ShardPlan: planBytes, Meta: s.Meta}
	out.Meta.Shard = shard
	out.Meta.NumShards = p.NumShards
	if s.Store != nil {
		epoch, entries := s.Store.Export()
		kept := entries[:0:0]
		for _, e := range entries {
			if p.ShardOf(e.Key.Node) == shard {
				kept = append(kept, e)
			}
		}
		out.Store = share.NewStore(s.Store.Config())
		out.Store.Import(epoch, kept)
	}
	if s.Cache != nil {
		epoch, entries := s.Cache.Export()
		kept := entries[:0:0]
		for _, e := range entries {
			if p.ShardOf(e.Key.Node) == shard {
				kept = append(kept, e)
			}
		}
		out.Cache = ptcache.New(64)
		out.Cache.Import(epoch, kept)
	}
	return out, nil
}
