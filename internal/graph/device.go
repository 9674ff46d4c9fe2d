package graph

import (
	"errors"
	"fmt"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
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
	// VAux is the secondary value (PageRank's expected arrival count,
	// BFS parent).
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
	// NeighVA is the base of the neighbor region (one word per edge,
	// holding the destination's ORIGINAL vertex ID). Lists are packed per
	// home node, not by edge offset: address one through its record's
	// VNeighVA only.
	NeighVA gasmem.VA
}

// Placement configures the DRAMmalloc distribution of the two arrays —
// the knob swept by the paper's Figure 12.
type Placement struct {
	// FirstNode and NRNodes select the memory nodes (NRNodes must be a
	// power of two).
	FirstNode, NRNodes int
	// BlockBytes is the striping block size (default 32 KiB, the paper's
	// Section 4.1.1 default): a power of two holding at least one vertex
	// record.
	BlockBytes uint64
}

// ErrBadPlacement is wrapped by LoadToGAS when it cannot lay the graph out
// under the Placement it was given.
var ErrBadPlacement = errors.New("graph: bad placement")

// DefaultPlacement stripes in 32 KiB blocks over all nodes, or, when their
// count is not a power of two, over as many of the first nodes as
// DRAMmalloc accepts (a 3-node machine holds the graph on nodes 0-1).
func DefaultPlacement(nodes int) Placement {
	return Placement{FirstNode: 0, NRNodes: gasmem.FloorPow2(nodes), BlockBytes: 32 << 10}
}

const recordBytes = VertexStride * gasmem.WordBytes

// layoutLists places every neighbor list in a region striped like the
// vertex array (blocks of bs bytes over the ring home describes) so that a
// list is homed with its vertex's record: the lists of the vertices ring
// position p homes are packed, in vertex order, into p's own blocks — the
// k-th of which is block k*NRNodes+p of the region — and a list that would
// straddle a block starts at p's next one. It returns each list's byte
// offset in the region and the bytes of one position's share.
//
// A list longer than a block cannot stay on one node: it starts on a block
// of its home position and runs on, contiguous in the region, through the
// blocks of the positions that follow, which are taken from them whole.
func layoutLists(s *SplitGraph, home gasmem.Striping, bs uint64) (offs []uint64, share uint64) {
	nr := uint64(home.NRNodes)
	offs = make([]uint64, s.N)
	used := make([]uint64, nr) // bytes of each position's blocks spoken for
	rows := func(n uint64) uint64 { return (n + bs - 1) / bs }
	for v := range offs {
		p := uint64(home.Pos(uint64(v)))
		n := uint64(s.Degree(uint32(v))) * gasmem.WordBytes
		if used[p]%bs+n > bs {
			used[p] = rows(used[p]) * bs
		}
		row := used[p] / bs
		if n > bs {
			// The j-th block the list covers lies j positions on, one
			// row down per lap of the ring: start on the first row from
			// which they are all still free, and take them.
			for j := uint64(1); j < rows(n); j++ {
				if free, lap := rows(used[(p+j)%nr]), (p+j)/nr; free > row+lap {
					row = free - lap
				}
			}
			for j := uint64(0); j < rows(n); j++ {
				used[(p+j)%nr] = (row + (p+j)/nr + 1) * bs
			}
			offs[v] = (row*nr + p) * bs
			continue
		}
		offs[v] = (row*nr+p)*bs + used[p]%bs
		used[p] += n
	}
	for _, u := range used {
		share = max(share, rows(u)*bs)
	}
	return offs, share
}

// LoadToGAS allocates and fills the device arrays, both striped as pl says;
// the neighbor lists follow their vertex blocks (see layoutLists).
func LoadToGAS(gas *gasmem.GAS, s *SplitGraph, pl Placement) (*DeviceGraph, error) {
	if pl.BlockBytes == 0 {
		pl.BlockBytes = 32 << 10
	}
	if bs := pl.BlockBytes; bs < recordBytes || bs&(bs-1) != 0 {
		return nil, fmt.Errorf("%w: BlockBytes %d: want a power of two >= one %d-byte vertex record",
			ErrBadPlacement, bs, recordBytes)
	}
	vertexVA, err := gas.DRAMmalloc(uint64(s.N)*recordBytes, pl.FirstNode, pl.NRNodes, pl.BlockBytes)
	if err != nil {
		return nil, err
	}
	home, _ := gas.RegionOf(vertexVA).Striping(recordBytes) // ok: records divide the block
	offs, share := layoutLists(s, home, pl.BlockBytes)
	neighVA, err := gas.DRAMmalloc(max(share, gasmem.WordBytes)*uint64(pl.NRNodes), pl.FirstNode, pl.NRNodes, pl.BlockBytes)
	if err != nil {
		return nil, err
	}
	d := &DeviceGraph{G: s, VertexVA: vertexVA, NeighVA: neighVA}
	rec := make([]uint64, VertexStride)
	var list []uint64
	for v := uint32(0); int(v) < s.N; v++ {
		rec[VDegree] = uint64(s.Degree(v))
		rec[VNeighVA] = neighVA + offs[v]
		rec[VTotalDeg] = uint64(s.TotalDeg[v])
		rec[VValue] = 0
		rec[VAux] = 0
		// Members are consecutive: a base member's sub-vertices are
		// [v+1, v+1+SubCount].
		rec[VSubStart] = uint64(v + 1)
		rec[VSubCount] = uint64(s.SubCount[v])
		rec[VParent] = uint64(s.Parent[v])
		gas.WriteWords(d.RecordVA(v), rec)
		list = list[:0]
		for _, dst := range s.Neighbors(v) {
			list = append(list, uint64(dst))
		}
		gas.WriteWords(rec[VNeighVA], list)
	}
	return d, nil
}

// Owner returns the owner-computes binding for tasks keyed by (split)
// vertex ID over lanes, or reports that it does not apply (kvmsr.NewOwner:
// the vertex array's nodes must be exactly the lane set's, and more than
// one). A task it binds finds record v — and, by the layout above, v's
// neighbor list — in its own node's memory.
func (d *DeviceGraph) Owner(m arch.Machine, gas *gasmem.GAS, lanes kvmsr.LaneSet) (kvmsr.Owner, bool) {
	r := gas.RegionOf(d.VertexVA)
	if r == nil || r.Base != d.VertexVA {
		return kvmsr.Owner{}, false
	}
	return kvmsr.NewOwner(m, lanes, r, recordBytes)
}

// RecordVA returns the address of vertex v's record.
func (d *DeviceGraph) RecordVA(v uint32) gasmem.VA {
	return d.VertexVA + uint64(v)*VertexStride*gasmem.WordBytes
}

// FieldVA returns the address of one field of vertex v's record.
func (d *DeviceGraph) FieldVA(v uint32, field int) gasmem.VA {
	return d.RecordVA(v) + uint64(field)*gasmem.WordBytes
}
