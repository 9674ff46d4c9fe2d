package graph

import (
	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/udweave"
)

// ReadAdj issues the chunked reads of a degree-long out-list at neighVA
// (a record's VNeighVA): at most 8 words per read, 2 cycles to issue each.
// ret receives the list in events of up to 8 neighbors, in any order.
func ReadAdj(c *udweave.Ctx, neighVA gasmem.VA, degree, ret uint64) {
	for off := uint64(0); off < degree; off += 8 {
		c.Cycles(2)
		c.DRAMRead(neighVA+off*gasmem.WordBytes, int(min(degree-off, 8)), ret)
	}
}

// Emit sends the tuple for out-neighbor nb of a streamed vertex — slot, a
// and b are the operands the stream was started with.
type Emit func(c *udweave.Ctx, slot, nb, a, b uint64)

// Streamer is a vertex task over the device graph: it reads one split
// vertex's degree and list address, streams the list through ReadAdj,
// emits one tuple per neighbor and replies with the number it sent.
type Streamer struct {
	dg                   *DeviceGraph
	emit                 Emit
	lStart, lRec, lChunk udweave.Label
}

// streamState is one stream's thread state.
type streamState struct {
	cont, slot, a, b     uint64
	degree, loaded, sent uint64
}

// NewStreamer defines the streamer's three events, named by names, on p.
func NewStreamer(p *udweave.Program, dg *DeviceGraph, names [3]string, emit Emit) *Streamer {
	s := &Streamer{dg: dg, emit: emit}
	s.lStart = p.Define(names[0], s.start)
	s.lRec = p.Define(names[1], s.rec)
	s.lChunk = p.Define(names[2], s.chunk)
	return s
}

// Start runs the stream of split vertex v on lane; its emits get slot, a
// and b, and cont receives their number.
func (s *Streamer) Start(c *udweave.Ctx, lane arch.NetworkID, cont, slot, v, a, b uint64) {
	c.SendEvent(udweave.EvwNew(lane, s.lStart), cont, v, a, b, slot)
}

func (s *Streamer) start(c *udweave.Ctx) {
	c.SetState(&streamState{cont: c.Cont(), a: c.Op(1), b: c.Op(2), slot: c.Op(3)})
	c.Cycles(4)
	c.DRAMRead(s.dg.FieldVA(uint32(c.Op(0)), VDegree), 2, c.ContinueTo(s.lRec))
}

func (s *Streamer) rec(c *udweave.Ctx) {
	st := c.State().(*streamState)
	if st.degree = c.Op(0); st.degree == 0 {
		c.Reply(st.cont, 0)
		c.YieldTerminate()
		return
	}
	c.Cycles(4)
	ReadAdj(c, c.Op(1), st.degree, c.ContinueTo(s.lChunk))
}

func (s *Streamer) chunk(c *udweave.Ctx) {
	st := c.State().(*streamState)
	st.sent += s.EmitChunk(c, st.slot, st.a, st.b)
	if st.loaded += uint64(c.NOps()); st.loaded == st.degree {
		c.Reply(st.cont, st.sent)
		c.YieldTerminate()
	}
}

// EmitChunk emits one tuple per neighbor in the current event's operands
// and returns the number of tuples it sent.
func (s *Streamer) EmitChunk(c *udweave.Ctx, slot, a, b uint64) uint64 {
	ops := c.Ops()
	for _, nb := range ops {
		s.emit(c, slot, nb, a, b)
	}
	return uint64(len(ops))
}
