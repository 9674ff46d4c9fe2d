package graph

import (
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
