package graph

import (
	"updown/internal/gasmem"
)

// Device layout: the two global data structures of Section 4.1.1 — the
// vertex array and the neighbor-list array — both distributed with
// DRAMmalloc across the machine. Every application (PR, BFS, TC) shares
// this record layout.

// VertexStride is the number of 64-bit words per vertex record.
const VertexStride = 8

// Vertex record word indices.
const (
	// VDegree is the split vertex's own out-degree.
	VDegree = iota
	// VNeighVA is the virtual address of its first out-neighbor.
	VNeighVA
	// VTotalDeg is the original vertex's total out-degree (PageRank
	// divides contributions by this).
	VTotalDeg
	// VValue is the primary per-vertex value (PageRank value bits, BFS
	// distance).
	VValue
	// VAux is the secondary value (next PageRank accumulator, BFS
	// parent).
	VAux
	// VSubStart / VSubCount give the original's extra sub-vertices.
	VSubStart
	VSubCount
	// VParent is the original vertex this split vertex belongs to.
	VParent
)

// DeviceGraph is a SplitGraph materialized in the global address space.
type DeviceGraph struct {
	G *SplitGraph
	// VertexVA is the vertex array base; record v is at
	// VertexVA + v*VertexStride*8.
	VertexVA gasmem.VA
	// NeighVA is the neighbor-list base (one word per edge, holding the
	// destination's ORIGINAL vertex ID).
	NeighVA gasmem.VA
}

// Placement configures the DRAMmalloc distribution of the two arrays —
// the knob swept by the paper's Figure 12.
type Placement struct {
	// FirstNode and NRNodes select the memory nodes (NRNodes must be a
	// power of two).
	FirstNode, NRNodes int
	// BlockBytes is the striping block size (default 32 KiB, the paper's
	// Section 4.1.1 default).
	BlockBytes uint64
}

// DefaultPlacement stripes in 32 KiB blocks over all nodes, or, when their
// count is not a power of two, over as many of the first nodes as
// DRAMmalloc accepts (a 3-node machine holds the graph on nodes 0-1).
func DefaultPlacement(nodes int) Placement {
	return Placement{FirstNode: 0, NRNodes: gasmem.FloorPow2(nodes), BlockBytes: 32 << 10}
}

// LoadToGAS allocates and fills the device arrays.
func LoadToGAS(gas *gasmem.GAS, s *SplitGraph, pl Placement) (*DeviceGraph, error) {
	if pl.BlockBytes == 0 {
		pl.BlockBytes = 32 << 10
	}
	vBytes := uint64(s.N) * VertexStride * gasmem.WordBytes
	nBytes := uint64(len(s.Neigh)) * gasmem.WordBytes
	if nBytes == 0 {
		nBytes = gasmem.WordBytes
	}
	vertexVA, err := gas.DRAMmalloc(vBytes, pl.FirstNode, pl.NRNodes, pl.BlockBytes)
	if err != nil {
		return nil, err
	}
	neighVA, err := gas.DRAMmalloc(nBytes, pl.FirstNode, pl.NRNodes, pl.BlockBytes)
	if err != nil {
		return nil, err
	}
	d := &DeviceGraph{G: s, VertexVA: vertexVA, NeighVA: neighVA}
	rec := make([]uint64, VertexStride)
	for v := uint32(0); int(v) < s.N; v++ {
		rec[VDegree] = uint64(s.Degree(v))
		rec[VNeighVA] = neighVA + s.Offsets[v]*gasmem.WordBytes
		rec[VTotalDeg] = uint64(s.TotalDeg[v])
		rec[VValue] = 0
		rec[VAux] = 0
		// Members are consecutive: a base member's sub-vertices are
		// [v+1, v+1+SubCount].
		rec[VSubStart] = uint64(v + 1)
		rec[VSubCount] = uint64(s.SubCount[v])
		rec[VParent] = uint64(s.Parent[v])
		gas.WriteWords(d.RecordVA(v), rec)
	}
	for i, dst := range s.Neigh {
		gas.WriteU64(neighVA+uint64(i)*gasmem.WordBytes, uint64(dst))
	}
	return d, nil
}

// RecordVA returns the address of vertex v's record.
func (d *DeviceGraph) RecordVA(v uint32) gasmem.VA {
	return d.VertexVA + uint64(v)*VertexStride*gasmem.WordBytes
}

// FieldVA returns the address of one field of vertex v's record.
func (d *DeviceGraph) FieldVA(v uint32, field int) gasmem.VA {
	return d.RecordVA(v) + uint64(field)*gasmem.WordBytes
}
