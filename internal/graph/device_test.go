package graph

import (
	"errors"
	"sort"
	"testing"

	"updown/internal/gasmem"
)

func TestLoadToGAS(t *testing.T) {
	g := FromEdges(64, DefaultRMAT(6, 9), BuildOptions{Dedup: true, SortNeighbors: true})
	s := Split(g, 8)
	gas := gasmem.New(4, 1<<30)
	d, err := LoadToGAS(gas, s, DefaultPlacement(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); int(v) < s.N; v++ {
		if got := gas.ReadU64(d.FieldVA(v, VDegree)); got != uint64(s.Degree(v)) {
			t.Fatalf("vertex %d degree %d, want %d", v, got, s.Degree(v))
		}
		if got := gas.ReadU64(d.FieldVA(v, VTotalDeg)); got != uint64(s.TotalDeg[v]) {
			t.Fatalf("vertex %d totalDeg %d, want %d", v, got, s.TotalDeg[v])
		}
		if got := gas.ReadU64(d.FieldVA(v, VParent)); got != uint64(s.Parent[v]) {
			t.Fatalf("vertex %d parent field %d, want %d", v, got, s.Parent[v])
		}
		// Walk the device neighbor list and compare.
		nva := gas.ReadU64(d.FieldVA(v, VNeighVA))
		for i, want := range s.Neighbors(v) {
			if got := gas.ReadU64(nva + uint64(i)*gasmem.WordBytes); got != uint64(want) {
				t.Fatalf("vertex %d neighbor %d = %d, want %d", v, i, got, want)
			}
		}
	}
}

func TestPlacementRespectsNRNodes(t *testing.T) {
	g := FromEdges(256, DefaultRMAT(8, 1), BuildOptions{Dedup: true})
	s := Split(g, 1024)
	gas := gasmem.New(8, 1<<30)
	// Stripe over only the first 2 nodes.
	d, err := LoadToGAS(gas, s, Placement{FirstNode: 0, NRNodes: 2, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); int(v) < s.N; v += 17 {
		if node := gas.NodeOf(d.RecordVA(v)); node > 1 {
			t.Fatalf("vertex %d on node %d, want <= 1", v, node)
		}
	}
}

// TestDefaultPlacementAnyNodeCount: DRAMmalloc takes power-of-two node
// counts only, so the default placement of a 3-, 5-, 6- or 7-node machine
// stripes over the largest power of two that fits (it used to ask for all
// of them and fail the load); power-of-two machines keep every node.
func TestDefaultPlacementAnyNodeCount(t *testing.T) {
	g := FromEdges(256, DefaultRMAT(8, 1), BuildOptions{Dedup: true})
	s := Split(g, 16)
	for nodes, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 6: 4, 7: 4, 8: 8} {
		pl := DefaultPlacement(nodes)
		if pl.NRNodes != want || pl.FirstNode != 0 || pl.BlockBytes != 32<<10 {
			t.Errorf("DefaultPlacement(%d) = %+v, want %d nodes from 0 in 32 KiB blocks", nodes, pl, want)
		}
		if _, err := LoadToGAS(gasmem.New(nodes, 1<<30), s, pl); err != nil {
			t.Errorf("%d nodes: %v", nodes, err)
		}
	}
}

// TestAdjacencyHomedWithRecord: the device layout follows the vertex blocks.
// On every ring (1-8 nodes, not starting at node 0), block size and split
// cap, each list reads back as s.Neighbors(v) through its record's VNeighVA;
// a list that fits a block lies inside one block of the node homing its
// record; no two lists overlap (lists longer than a block — unsplit hubs,
// the 1024 cap under 4 KiB blocks — included); and the region is no larger
// than the fullest node's share needs.
func TestAdjacencyHomedWithRecord(t *testing.T) {
	g := FromEdges(1<<12, DefaultRMAT(12, 5), BuildOptions{Undirected: true, Dedup: true, SortNeighbors: true})
	const firstNode = 3
	spilled := false
	for _, nr := range []int{1, 2, 4, 8} {
		for _, bs := range []uint64{4 << 10, 32 << 10} {
			for _, maxDeg := range []int{8, 64, 1024, 0} {
				s := Split(g, maxDeg)
				gas := gasmem.New(firstNode+nr, 1<<30)
				d, err := LoadToGAS(gas, s, Placement{FirstNode: firstNode, NRNodes: nr, BlockBytes: bs})
				if err != nil {
					t.Fatal(err)
				}
				type span struct{ lo, hi uint64 }
				var lists []span
				share := make([]uint64, nr) // highest byte a list occupies in each position's blocks
				homed := make([]uint64, nr) // list bytes each position homes
				fitsHalf, region := true, gas.RegionOf(d.NeighVA)
				for v := uint32(0); int(v) < s.N; v++ {
					want := s.Neighbors(v)
					if len(want) == 0 {
						continue
					}
					nva := gas.ReadU64(d.FieldVA(v, VNeighVA))
					bytes := uint64(len(want)) * gasmem.WordBytes
					lists = append(lists, span{nva, nva + bytes})
					home := gas.NodeOf(d.RecordVA(v))
					homed[home-firstNode] += bytes
					fitsHalf = fitsHalf && bytes <= bs/2
					spilled = spilled || bytes > bs
					if bytes <= bs && (nva-d.NeighVA)/bs != (nva+bytes-1-d.NeighVA)/bs {
						t.Fatalf("nr=%d bs=%d cap=%d: vertex %d's %d-byte list straddles a block", nr, bs, maxDeg, v, bytes)
					}
					for i, w := range want {
						va := nva + uint64(i)*gasmem.WordBytes
						if got := gas.ReadU64(va); got != uint64(w) {
							t.Fatalf("nr=%d bs=%d cap=%d: vertex %d neighbor %d = %d, want %d", nr, bs, maxDeg, v, i, got, w)
						}
						if node := gas.NodeOf(va); bytes <= bs && node != home {
							t.Fatalf("nr=%d bs=%d cap=%d: vertex %d on node %d, list word %d on node %d", nr, bs, maxDeg, v, home, i, node)
						}
						blk := (va - d.NeighVA) / bs
						pos := blk % uint64(nr)
						share[pos] = max(share[pos], blk/uint64(nr)*bs+(va-d.NeighVA)%bs+gasmem.WordBytes)
					}
				}
				sort.Slice(lists, func(i, j int) bool { return lists[i].lo < lists[j].lo })
				for i := 1; i < len(lists); i++ {
					if lists[i].lo < lists[i-1].hi {
						t.Fatalf("nr=%d bs=%d cap=%d: lists [%#x,%#x) and [%#x,%#x) overlap", nr, bs, maxDeg,
							lists[i-1].lo, lists[i-1].hi, lists[i].lo, lists[i].hi)
					}
				}
				var maxShare, maxHomed uint64
				for p := range share {
					maxShare, maxHomed = max(maxShare, share[p]), max(maxHomed, homed[p])
				}
				if limit := (maxShare + bs - 1) / bs * bs * uint64(nr); region.Size > limit {
					t.Errorf("nr=%d bs=%d cap=%d: region of %d bytes, fullest share needs %d", nr, bs, maxDeg, region.Size, limit)
				}
				// Padding: with every list at most half a block, a block is
				// at least half used.
				if fitsHalf && maxShare > 2*maxHomed+bs {
					t.Errorf("nr=%d bs=%d cap=%d: fullest share %d bytes for %d bytes of lists", nr, bs, maxDeg, maxShare, maxHomed)
				}
			}
		}
	}
	if !spilled {
		t.Fatal("no list longer than a block: the spill layout went untested")
	}
}

// TestLoadToGASRejectsBadBlock: a block that cannot hold one vertex record,
// or is not a power of two, is a typed error (the first used to be accepted).
func TestLoadToGASRejectsBadBlock(t *testing.T) {
	s := Split(FromEdges(64, DefaultRMAT(6, 9), BuildOptions{Dedup: true}), 8)
	for _, bs := range []uint64{8, 32, 48, 96, 4097} {
		_, err := LoadToGAS(gasmem.New(2, 1<<30), s, Placement{NRNodes: 2, BlockBytes: bs})
		if !errors.Is(err, ErrBadPlacement) {
			t.Errorf("BlockBytes %d: err = %v, want ErrBadPlacement", bs, err)
		}
	}
	if _, err := LoadToGAS(gasmem.New(2, 1<<30), s, Placement{NRNodes: 2, BlockBytes: 64}); err != nil {
		t.Errorf("BlockBytes 64 (one record): %v", err)
	}
}
