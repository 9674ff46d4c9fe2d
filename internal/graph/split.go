package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"updown/internal/prng"
)

// SplitGraph is the output of the paper's split_and_shuffle preprocessing:
// high-degree vertices are split into sub-vertices so no out-list exceeds
// MaxDeg, "yet yields the correct result for the original graph"
// (Section 5.2.1), and the vertex order is shuffled so that the work of
// split hubs spreads evenly over the Block computation binding's
// contiguous key ranges — without the shuffle, all sub-vertices would
// cluster in a few lanes' ranges and serialize the map phase.
//
// Vertex IDs are relabeled: each original vertex becomes a "base" member
// followed immediately by its sub-vertices (members are consecutive), and
// the base members appear in shuffled order. Out-neighbor lists reference
// the BASE member of the destination, so pushed updates (PageRank
// contributions, BFS discoveries) land on the vertex that owns the
// original's state; only out-edge work is partitioned across members.
type SplitGraph struct {
	*Graph
	// OrigN is the original vertex count.
	OrigN int
	// MaxDeg is the configured cap.
	MaxDeg int
	// Parent maps every split vertex to its base member (identity for
	// base members).
	Parent []uint32
	// SubCount gives a base member's extra sub-vertices; they occupy IDs
	// [v+1, v+1+SubCount[v]]. Zero for sub-vertices.
	SubCount []uint32
	// TotalDeg is, for every split vertex, the total out-degree of its
	// original vertex (PageRank divides contributions by this).
	TotalDeg []uint32
	// NewID maps an original input vertex ID to its base member.
	NewID []uint32
	// OrigID maps any split vertex back to its original input ID.
	OrigID []uint32
}

// SplitOptions configures the preprocessing.
type SplitOptions struct {
	// MaxDeg caps member out-degree (<= 0: no cap).
	MaxDeg int
	// Seed drives the shuffle; 0 disables it (identity order, except
	// that SpreadInEdges pulls singletons forward to align member runs).
	Seed uint64
	// SpreadInEdges relabels each neighbor-list entry to a
	// pseudo-random MEMBER of the destination instead of its base, so
	// pushed per-edge updates to a high-in-degree vertex spread over its
	// members' reduce lanes instead of serializing on one. PageRank uses
	// this (a sub-vertex's sum is reported to its base); BFS must
	// not (its discovery dedup is per base member).
	// It makes an original's k members one unit of state, so it also
	// aligns them (alignRuns): a power-of-two striping block of at least
	// nextpow2(k) records then homes the whole run on one node.
	SpreadInEdges bool
}

// DefaultShuffleSeed is the deterministic shuffle used by Split.
const DefaultShuffleSeed = 0x5EED

// Split applies split_and_shuffle with the default deterministic shuffle.
func Split(g *Graph, maxDeg int) *SplitGraph {
	return SplitWith(g, SplitOptions{MaxDeg: maxDeg, Seed: DefaultShuffleSeed})
}

// SplitWith applies the full preprocessing.
func SplitWith(g *Graph, opt SplitOptions) *SplitGraph {
	maxDeg, seed := opt.MaxDeg, opt.Seed
	if maxDeg <= 0 {
		maxDeg = int(^uint32(0) >> 1)
	}
	// Shuffled processing order of the original vertices.
	order := make([]uint32, g.N)
	for i := range order {
		order[i] = uint32(i)
	}
	if seed != 0 {
		rng := prng.NewStream(seed)
		for i := g.N - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	// First pass: member counts fix the new ID of every base member.
	members := func(d int) int {
		if d <= maxDeg {
			return 1
		}
		return (d + maxDeg - 1) / maxDeg
	}
	n2 := 0
	for v := 0; v < g.N; v++ {
		n2 += members(g.Degree(uint32(v)))
	}
	if opt.SpreadInEdges {
		order = alignRuns(order, func(v uint32) int { return members(g.Degree(v)) })
	}
	s := &SplitGraph{
		Graph:    &Graph{N: n2, Offsets: make([]uint64, n2+1)},
		OrigN:    g.N,
		MaxDeg:   maxDeg,
		Parent:   make([]uint32, n2),
		SubCount: make([]uint32, n2),
		TotalDeg: make([]uint32, n2),
		NewID:    make([]uint32, g.N),
		OrigID:   make([]uint32, n2),
	}
	next := uint32(0)
	for _, orig := range order {
		s.NewID[orig] = next
		next += uint32(members(g.Degree(orig)))
	}
	// Second pass: lay out members and relabeled neighbor lists.
	neigh := make([]uint32, 0, len(g.Neigh))
	// Offsets must be filled per new ID; process originals in shuffled
	// (= new ID) order so neigh stays contiguous.
	for _, orig := range order {
		base := s.NewID[orig]
		lo, hi := g.Offsets[orig], g.Offsets[orig+1]
		d := int(hi - lo)
		k := members(d)
		s.SubCount[base] = uint32(k - 1)
		for m := 0; m < k; m++ {
			id := base + uint32(m)
			s.Parent[id] = base
			s.TotalDeg[id] = uint32(d)
			s.OrigID[id] = orig
			s.Offsets[id] = uint64(len(neigh))
			mlo := lo + uint64(m*maxDeg)
			mhi := mlo + uint64(maxDeg)
			if mhi > hi {
				mhi = hi
			}
			// Destinations keep original IDs here; they are
			// relabeled to base members once every NewID is known.
			neigh = append(neigh, g.Neigh[mlo:mhi]...)
		}
	}
	s.Offsets[n2] = uint64(len(neigh))
	// Relabel destinations, then restore each member's list to ascending
	// order (the triangle-counting intersection requires sorted lists;
	// push-based PR/BFS are order-insensitive).
	for i, dst := range neigh {
		base := s.NewID[dst]
		if opt.SpreadInEdges {
			if k := uint32(s.SubCount[base]) + 1; k > 1 {
				neigh[i] = base + uint32(prng.Mix64(uint64(i))%uint64(k))
				continue
			}
		}
		neigh[i] = base
	}
	s.Graph.Neigh = neigh
	for v := 0; v < n2; v++ {
		slices.Sort(neigh[s.Offsets[v]:s.Offsets[v+1]])
	}
	return s
}

// alignRuns reorders originals so that each one's k members fall inside
// one aligned window of nextpow2(k) IDs: where a run would cross its
// window, the next unused singletons (1-member originals) are pulled
// forward into the gap in front of it. Once they run out, runs stay put.
func alignRuns(order []uint32, members func(uint32) int) []uint32 {
	out := make([]uint32, 0, len(order))
	pulled := make([]bool, len(order))
	next, single := 0, 0 // next ID; next position to search for a singleton
	for i, orig := range order {
		if pulled[i] {
			continue
		}
		k := members(orig)
		w := 1 << bits.Len(uint(k-1))
		for single = max(single, i+1); next/w != (next+k-1)/w; single++ {
			for single < len(order) && members(order[single]) != 1 {
				single++
			}
			if single == len(order) {
				break
			}
			pulled[single] = true
			out = append(out, order[single])
			next++
		}
		out = append(out, orig)
		next += k
	}
	return out
}

// Members returns the split-vertex IDs representing original input vertex
// orig: its base member followed by the sub-vertices.
func (s *SplitGraph) Members(orig uint32) []uint32 {
	base := s.NewID[orig]
	ids := make([]uint32, 1+s.SubCount[base])
	for i := range ids {
		ids[i] = base + uint32(i)
	}
	return ids
}

// IsBase reports whether a split vertex is a base member.
func (s *SplitGraph) IsBase(v uint32) bool { return s.Parent[v] == v }

// ValidateSplit checks the transformation invariants against the original.
func (s *SplitGraph) ValidateSplit(orig *Graph) error {
	if err := s.Graph.Validate(); err != nil {
		return err
	}
	if s.NumEdges() != orig.NumEdges() {
		return fmt.Errorf("graph: split changed edge count %d -> %d", orig.NumEdges(), s.NumEdges())
	}
	if s.MaxDegree() > s.MaxDeg {
		return fmt.Errorf("graph: split left degree %d > cap %d", s.MaxDegree(), s.MaxDeg)
	}
	// Per original vertex: the concatenation of its members' lists must
	// equal the original list (relabeled to base members).
	for v := uint32(0); int(v) < orig.N; v++ {
		var got []uint32
		for _, m := range s.Members(v) {
			if s.Parent[m] != s.NewID[v] {
				return fmt.Errorf("graph: member %d of %d has parent %d", m, v, s.Parent[m])
			}
			if s.OrigID[m] != v {
				return fmt.Errorf("graph: member %d of %d has OrigID %d", m, v, s.OrigID[m])
			}
			got = append(got, s.Neighbors(m)...)
		}
		// Compare in the original ID space (entries may target any
		// member of the destination under SpreadInEdges).
		for i := range got {
			got[i] = s.OrigID[got[i]]
		}
		want := append([]uint32(nil), orig.Neighbors(v)...)
		if len(got) != len(want) {
			return fmt.Errorf("graph: vertex %d out-degree %d != %d after split", v, len(got), len(want))
		}
		slices.Sort(got)
		slices.Sort(want)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("graph: vertex %d neighbor %d relabeled wrongly", v, i)
			}
		}
		if s.TotalDeg[s.NewID[v]] != uint32(len(want)) {
			return fmt.Errorf("graph: vertex %d TotalDeg %d != %d", v, s.TotalDeg[s.NewID[v]], len(want))
		}
	}
	// NewID must be a bijection onto base members.
	seen := make(map[uint32]bool, orig.N)
	for v := 0; v < orig.N; v++ {
		b := s.NewID[v]
		if seen[b] || !s.IsBase(b) {
			return fmt.Errorf("graph: NewID not a bijection at %d", v)
		}
		seen[b] = true
	}
	return nil
}
