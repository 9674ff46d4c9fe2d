// Topology-aware lookahead for the window-parallel engine.
//
// One global conservative window of MinCrossNodeLatency cycles per
// barrier is the right bound for traffic between shards — shards
// partition actors by node, so any message crossing a shard boundary
// crosses a node boundary and pays the system network — but it throttles
// workloads whose traffic is provably local (the retired fixed-window
// engine; its A/B is on record in BENCH_sim.json). The scheduler instead
// keeps a shard-pair matrix of delivery-time lower bounds and computes
// each shard's horizon from the peers it can actually receive from:
//
//	next[A]    = earliest message shard A could still execute
//	             (its heap top, plus staged outbox messages bound for it)
//	horizon[B] = min over A != B of next[A] + laMat[A][B]
//
// Safety: every message B has not yet received must originate from a
// future execution on some peer A, which happens no earlier than
// next[A], and then travels for at least laMat[A][B] cycles. So no
// message with Deliver < horizon[B] can still reach B, and B may execute
// everything below horizon[B] without violating causality. Because the
// horizon partitioning never changes which messages exist or the
// per-actor (Deliver, Src, Seq) execution order — only how the timeline
// is sliced — results are bit-identical to the sequential driver at every
// shard count.
//
// With the node-contiguous partition the matrix is LatCrossNode for
// every distinct pair (shards never share a node), so horizon[B] is
// never tighter than that global window; the win comes from next[A]
// jumping ahead when peers are idle or far in the future, and from the
// lock-free extension protocol layered on top (pool.go, mux.go) that
// re-widens horizons mid-window while no cross-shard traffic is staged.
package sim

import (
	"math"

	"updown/internal/arch"
)

// shardLatencyBounds derives the shard-pair delivery-time lower-bound
// matrix from the machine topology and the node->shard partition.
// mat[a][b] for a != b is the minimum latency of any message from an
// actor owned by shard a to an actor owned by shard b; mat[a][a] is the
// intra-shard bound (unused by the horizon computation, kept for
// completeness). row[a] is the min over b != a of mat[a][b] — the
// tightest bound on how soon anything shard a does can become visible
// elsewhere, used by the extension protocol's published frontiers.
func shardLatencyBounds(m arch.Machine, nodeShard []int32, nshards int) (mat [][]arch.Cycles, row []arch.Cycles) {
	mat = make([][]arch.Cycles, nshards)
	for i := range mat {
		mat[i] = make([]arch.Cycles, nshards)
		for j := range mat[i] {
			mat[i][j] = math.MaxInt64
		}
	}
	// Walk node pairs, not actor pairs: latency classes depend only on
	// node identity at shard granularity (the cheaper same-accel and
	// same-lane classes can only occur within one node, hence within one
	// shard under the node-contiguous partition).
	for a := 0; a < m.Nodes; a++ {
		sa := nodeShard[a]
		for b := 0; b < m.Nodes; b++ {
			sb := nodeShard[b]
			if l := m.MinNodeLatency(a, b); l < mat[sa][sb] {
				mat[sa][sb] = l
			}
		}
	}
	row = make([]arch.Cycles, nshards)
	for a := range row {
		row[a] = math.MaxInt64
		for b := range mat[a] {
			if b != a && mat[a][b] < row[a] {
				row[a] = mat[a][b]
			}
		}
	}
	return mat, row
}

// satAdd adds two cycle counts, saturating at MaxInt64 so "no pending
// work" (MaxInt64) plus a latency bound stays "no bound".
func satAdd(a, b arch.Cycles) arch.Cycles {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}
