package collections

import (
	"fmt"

	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// ParallelGraph is the paper's streaming graph abstraction (Table 3:
// "Parallel Graph — uses two SHTs"): a vertex table and an edge table,
// both scalable hash tables, fed record-by-record by the ingestion
// pipeline with fine-grained locking at the owner lanes.
//
// Vertex values accumulate the touch count (degree); edge values store the
// record's edge type. Edge keys pack (src, dst), so both endpoints must be
// below 2^32.
type ParallelGraph struct {
	Vertices *SHT
	Edges    *SHT

	lInsert udweave.Label
	lAck    udweave.Label
}

// Table geometry, Listing 14's VERTEX_EB/BL and EDGE_EB/BL scaled down to
// keep the reduced-scale tables modest: the vertex table holds 8 entries
// per bucket and 32 buckets per lane, the edge table 8 entries per bucket
// and 64 buckets per lane.
const (
	vertexEB, vertexBL = 8, 32
	edgeEB, edgeBL     = 8, 64
)

// pgInsert tracks one in-flight record insertion.
type pgInsert struct {
	cont    uint64
	pending int
}

// EdgeKey packs a directed edge.
func EdgeKey(src, dst uint64) uint64 { return src<<32 | dst }

// NewParallelGraph registers the abstraction and its two tables over
// lanes (the paper's Listing 14 NUM_PGA_LANES).
func NewParallelGraph(p *udweave.Program, name string, lanes kvmsr.LaneSet) (*ParallelGraph, error) {
	v, err := NewSHT(p, SHTConfig{Name: name + ".v", Lanes: lanes,
		BucketsPerLane: vertexBL, EntriesPerBucket: vertexEB})
	if err != nil {
		return nil, err
	}
	e, err := NewSHT(p, SHTConfig{Name: name + ".e", Lanes: lanes,
		BucketsPerLane: edgeBL, EntriesPerBucket: edgeEB})
	if err != nil {
		return nil, err
	}
	g := &ParallelGraph{Vertices: v, Edges: e}
	g.lInsert = p.Define(name+".insert", g.insert)
	g.lAck = p.Define(name+".insert_ack", g.ack)
	return g, nil
}

// Alloc reserves both tables' bucket storage.
func (g *ParallelGraph) Alloc(gas *gasmem.GAS) error {
	if err := g.Vertices.Alloc(gas); err != nil {
		return err
	}
	return g.Edges.Alloc(gas)
}

// Insert upserts both endpoint vertices and the typed edge of one record;
// cont receives the acknowledgment once all three table operations have
// completed. src and dst must fit in 32 bits.
func (g *ParallelGraph) Insert(c *udweave.Ctx, src, dst, edgeType uint64, cont uint64) {
	if src >= 1<<32 || dst >= 1<<32 {
		panic(fmt.Sprintf("collections: ParallelGraph.Insert ids (%d,%d) exceed 32 bits", src, dst))
	}
	c.Cycles(3)
	c.SendEvent(udweave.EvwNew(c.NetworkID(), g.lInsert), cont, src, dst, edgeType)
}

// insert runs as its own thread on the inserting lane, collecting the
// three acknowledgments.
func (g *ParallelGraph) insert(c *udweave.Ctx) {
	src, dst, typ := c.Op(0), c.Op(1), c.Op(2)
	c.SetState(&pgInsert{cont: c.Cont(), pending: 3})
	ack := c.ContinueTo(g.lAck)
	c.Cycles(6)
	g.Vertices.Add(c, src, 1, ack)
	g.Vertices.Add(c, dst, 1, ack)
	g.Edges.Put(c, EdgeKey(src, dst), typ, ack)
}

func (g *ParallelGraph) ack(c *udweave.Ctx) {
	st := c.State().(*pgInsert)
	st.pending--
	c.Cycles(2)
	if st.pending == 0 {
		c.Reply(st.cont)
		c.YieldTerminate()
	}
}
