// Package cluster is the sharded scatter–gather execution subsystem: it
// runs the CAQE pipeline across N shards and merges the per-shard results
// at a coordinator.
//
// The topology is static: a ShardMap describes how the left relation R is
// partitioned across N shards (hash or range over row IDs) while T is
// replicated to every shard. Because the partitions of R are disjoint and
// T is complete everywhere, every join pair (r, t) is produced on exactly
// one shard, so each shard's result stream for a query is the local
// skyline of a disjoint slice of the query's join output. The union of
// local skylines is then a superset of the global skyline, and one final
// dominance pass over the union (Merge) restores exact result-set
// equality — the classical distributed-skyline argument the subsystem is
// built on.
//
// Two execution paths share the topology and merge machinery: Run executes
// a whole workload batch-style with CAQE on every shard (deterministic,
// used by the property tests and the benchmark), and Coordinator scatters online session
// queries over ShardConn transports — in-process sessions or remote
// caqe-serve nodes over HTTP — and gathers, merges and delivers each
// query's results.
//
// The counted-work contract is preserved across the distribution boundary:
// each shard executor is byte-identical to an unsharded run over its
// partition, and the coordinator's merge-pass dominance comparisons are
// charged as metered skyline comparisons on the coordinator's own clock.
package cluster

import (
	"fmt"

	"caqe/internal/tuple"
)

// Strategy selects how row IDs of R map to shards.
type Strategy string

const (
	// PartitionRange assigns contiguous row-ID blocks: shard i holds rows
	// [⌊i·n/N⌋, ⌊(i+1)·n/N⌋).
	PartitionRange Strategy = "range"
	// PartitionHash assigns each row by a deterministic integer hash of its
	// ID, decorrelating shard membership from data order.
	PartitionHash Strategy = "hash"
)

// ShardMap is the static cluster topology: N shards and the partitioning
// strategy for R. The mapping depends only on (row count, N, strategy), so
// a remote shard node can derive its own partition from the shared dataset
// parameters and the coordinator can derive the matching local→global row
// ID translation without ever seeing the data.
type ShardMap struct {
	Shards   int
	Strategy Strategy
}

// NewShardMap validates and returns a topology.
func NewShardMap(shards int, strategy Strategy) (ShardMap, error) {
	if shards < 1 {
		return ShardMap{}, fmt.Errorf("cluster: need at least 1 shard, got %d", shards)
	}
	switch strategy {
	case "":
		strategy = PartitionRange
	case PartitionRange, PartitionHash:
	default:
		return ShardMap{}, fmt.Errorf("cluster: unknown partition strategy %q (range or hash)", strategy)
	}
	return ShardMap{Shards: shards, Strategy: strategy}, nil
}

// hashRID is a deterministic 64-bit integer mix (splitmix64 finalizer) so
// hash partitioning is stable across processes without seeding.
func hashRID(rid int) uint64 {
	x := uint64(rid) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardOf returns the shard owning global row ID rid of an n-row R.
func (m ShardMap) ShardOf(rid, n int) int {
	if m.Shards <= 1 {
		return 0
	}
	switch m.Strategy {
	case PartitionHash:
		return int(hashRID(rid) % uint64(m.Shards))
	default: // range
		// Inverse of the block bounds ⌊i·n/N⌋: rid·N/n truncated, clamped
		// against boundary rounding.
		i := rid * m.Shards / n
		for i > 0 && rid < i*n/m.Shards {
			i--
		}
		for i < m.Shards-1 && rid >= (i+1)*n/m.Shards {
			i++
		}
		return i
	}
}

// Table returns, for each shard, the ordered list of global row IDs it
// owns: table[s][local] = global. It is the local→global translation the
// gather layer applies to shard emissions, derived purely from (n, N,
// strategy) — shard workers renumber their partition densely from 0, so a
// shard's local RID k always refers to the k-th global ID in its list.
func (m ShardMap) Table(n int) [][]int {
	table := make([][]int, m.Shards)
	for rid := 0; rid < n; rid++ {
		s := m.ShardOf(rid, n)
		table[s] = append(table[s], rid)
	}
	return table
}

// Partition splits R into one dense-ID relation per shard plus the
// matching local→global row ID table. Each partition relation renumbers
// its tuples from 0 (tuple.Relation IDs are dense by construction), so a
// shard executor sees exactly what an unsharded run over that slice would
// see; attribute and key storage is shared with the input, which is
// treated as immutable. A single-shard map returns R itself.
func (m ShardMap) Partition(r *tuple.Relation) ([]*tuple.Relation, [][]int) {
	n := r.Len()
	table := m.Table(n)
	if m.Shards == 1 {
		return []*tuple.Relation{r}, table
	}
	parts := make([]*tuple.Relation, m.Shards)
	for s, rids := range table {
		part := tuple.NewRelation(r.Schema)
		part.Tuples = make([]tuple.Tuple, len(rids))
		for local, rid := range rids {
			src := r.At(rid)
			part.Tuples[local] = tuple.Tuple{ID: local, Attrs: src.Attrs, Keys: src.Keys}
		}
		parts[s] = part
	}
	return parts, table
}
