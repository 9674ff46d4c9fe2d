package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"testing"
)

// TestSpreadSplitAlignsMemberRuns: with SpreadInEdges every base's members
// lie in one aligned window of nextpow2(k) IDs, so any power-of-two
// striping block at least that many records wide homes the run on one
// node, and the split stays a valid split_and_shuffle. At PageRank's cap
// (64) every run aligns; at cap 4 the singletons run out, and a run may
// then cross its window only where no singleton follows it.
func TestSpreadSplitAlignsMemberRuns(t *testing.T) {
	for scale := 10; scale <= 16; scale++ {
		for _, seed := range []uint64{1, 2, 3} {
			g := FromEdges(1<<scale, DefaultRMAT(scale, seed), BuildOptions{
				Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
			for _, maxDeg := range []int{4, 64} {
				s := SplitWith(g, SplitOptions{MaxDeg: maxDeg, Seed: DefaultShuffleSeed, SpreadInEdges: true})
				if err := s.ValidateSplit(g); err != nil {
					t.Fatalf("s%d seed %d cap %d: %v", scale, seed, maxDeg, err)
				}
				runs, crossed, lastSingle := 0, uint32(0), uint32(0)
				for v := uint32(0); int(v) < s.N; v++ {
					switch k := s.SubCount[v] + 1; {
					case !s.IsBase(v):
					case k == 1:
						lastSingle = v
					default:
						runs++
						if w := uint32(1) << bits.Len32(k-1); v/w != (v+k-1)/w && crossed == 0 {
							crossed = v
						}
					}
				}
				if runs == 0 {
					t.Fatalf("s%d seed %d cap %d: no member runs to check", scale, seed, maxDeg)
				}
				if crossed != 0 && (maxDeg == 64 || crossed < lastSingle) {
					t.Fatalf("s%d seed %d cap %d: the members of base %d cross their window, singleton %d follows",
						scale, seed, maxDeg, crossed, lastSingle)
				}
			}
		}
	}
}

// TestSplitWithoutSpreadUnchanged pins the layout of splits without
// SpreadInEdges (BFS, point queries, scheduler jobs, TC): member runs are
// aligned only under spreading, so these keep their order byte for byte
// (digests of NewID, Neigh and Offsets taken before the alignment rule).
func TestSplitWithoutSpreadUnchanged(t *testing.T) {
	for _, c := range []struct {
		scale, maxDeg int
		seed          uint64
		want          string
	}{
		{12, 16, 5, "1982f97a6e0847b9"},
		{12, 64, 42, "fd706f4c915dbe4f"},
		{12, 256, 1, "e3e5d3c62fe3be1f"},
		{10, 0, 5, "9d5e254a1ff95bc9"},
	} {
		g := FromEdges(1<<c.scale, DefaultRMAT(c.scale, c.seed), BuildOptions{Dedup: true, SortNeighbors: true})
		s := Split(g, c.maxDeg)
		h := fnv.New64a()
		var b [8]byte
		for _, xs := range [][]uint32{s.NewID, s.Neigh} {
			for _, x := range xs {
				binary.LittleEndian.PutUint32(b[:4], x)
				h.Write(b[:4])
			}
		}
		for _, x := range s.Offsets {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("s%d cap %d seed %d: layout digest %s, pinned %s", c.scale, c.maxDeg, c.seed, got, c.want)
		}
	}
}
