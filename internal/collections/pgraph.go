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

// ParallelGraphConfig sizes the two tables (the paper's Listing 14
// parameters: NUM_PGA_LANES, VERTEX_EB/BL, EDGE_EB/BL).
type ParallelGraphConfig struct {
	Name  string
	Lanes kvmsr.LaneSet
	// VertexEB/VertexBL: entries per bucket and buckets per lane of the
	// vertex table.
	VertexEB, VertexBL int
	// EdgeEB/EdgeBL size the edge table.
	EdgeEB, EdgeBL int
}

// pgInsert tracks one in-flight record insertion.
type pgInsert struct {
	cont    uint64
	pending int
}

// EdgeKey packs a directed edge.
func EdgeKey(src, dst uint64) uint64 { return src<<32 | dst }

// NewParallelGraph registers the abstraction and its two tables.
func NewParallelGraph(p *udweave.Program, cfg ParallelGraphConfig) (*ParallelGraph, error) {
	v, err := NewSHT(p, SHTConfig{Name: cfg.Name + ".v", Lanes: cfg.Lanes,
		BucketsPerLane: cfg.VertexBL, EntriesPerBucket: cfg.VertexEB})
	if err != nil {
		return nil, err
	}
	e, err := NewSHT(p, SHTConfig{Name: cfg.Name + ".e", Lanes: cfg.Lanes,
		BucketsPerLane: cfg.EdgeBL, EntriesPerBucket: cfg.EdgeEB})
	if err != nil {
		return nil, err
	}
	g := &ParallelGraph{Vertices: v, Edges: e}
	g.lInsert = p.Define(cfg.Name+".insert", g.insert)
	g.lAck = p.Define(cfg.Name+".insert_ack", g.ack)
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
