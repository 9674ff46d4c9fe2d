// Package ingest implements the paper's streaming ingestion workflow
// (Section 5.2.4, Figure 10): a CSV input is read as a parallel file —
// KVMSR maps over its blocks — with TFORM transducing each block's bytes
// into 64-byte binary records (phase 1), after which a second KVMSR phase
// inserts the records into the ParallelGraph's scalable hash tables using
// fine-grained locking (phase 2). Records may span block boundaries; each
// block parses from the first record boundary after its start through the
// first boundary after its end, which is exactly the cross-block access a
// cloud map-reduce formulation cannot express.
package ingest

import (
	"fmt"

	"updown"
	"updown/internal/collections"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/tform"
	"updown/internal/udweave"
)

// minRecordBytes bounds records per block ("0,0,0,0,0\n").
const minRecordBytes = 10

// insertWindow caps in-flight record insertions per phase-2 map task.
const insertWindow = 8

// Config selects run parameters.
type Config struct {
	// Lanes is the KVMSR lane set (default: whole machine).
	Lanes kvmsr.LaneSet
	// BlockBytes is the parallel-file block size (default 4096).
	BlockBytes int
}

// App is an ingestion program instance.
type App struct {
	m   *updown.Machine
	cfg Config

	PG *collections.ParallelGraph

	fileVA   gasmem.VA
	fileLen  int
	blocks   int
	capBlk   int
	recsVA   gasmem.VA
	countsVA gasmem.VA

	parseInv  *kvmsr.Invocation
	insertInv *kvmsr.Invocation

	lFileChunk udweave.Label
	lRecAck    udweave.Label
	lCntRead   udweave.Label
	lRecRead   udweave.Label
	lInsAck    udweave.Label
	lDriver    udweave.Label

	Start      updown.Cycles
	Phase1Done updown.Cycles
	Done       updown.Cycles
	// Records is the total parsed record count (host-read post-run).
	Records uint64
}

// parseState drives one block's transduction.
type parseState struct {
	mapCont uint64
	blockLo int // first byte of the block
	pos     int // next byte to fetch
	hi      int // block end (parsing continues past it to a boundary)
	started bool
	doneIn  bool // reached a record boundary at/after hi
	parser  tform.Parser
	recs    []tform.Record
	written int
	pending int
	flushed bool
}

// insertState drives one block's record insertions. Record reads are
// order-independent (each response carries a whole self-contained
// record), so several stay in flight at once.
type insertState struct {
	mapCont  uint64
	blockIdx uint64
	count    uint64
	next     uint64
	inFlight int
	reads    int
}

// New stages the CSV bytes into global memory and registers the program.
func New(m *updown.Machine, data []byte, cfg Config) (*App, error) {
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = 4096
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("ingest: empty input")
	}
	a := &App{m: m, cfg: cfg, fileLen: len(data)}
	a.blocks = (len(data) + cfg.BlockBytes - 1) / cfg.BlockBytes
	a.capBlk = cfg.BlockBytes/minRecordBytes + 2

	gas := m.GAS
	nodes := m.Arch.Nodes
	words := (len(data) + 7) / 8
	var err error
	a.fileVA, err = gas.DRAMmalloc(uint64(words)*8, 0, nodes, 32<<10)
	if err != nil {
		return nil, err
	}
	// Stage the parallel file.
	for w := 0; w < words; w++ {
		var v uint64
		for b := 0; b < 8; b++ {
			i := w*8 + b
			if i < len(data) {
				v |= uint64(data[i]) << (8 * b)
			}
		}
		gas.WriteU64(a.fileVA+uint64(w)*8, v)
	}
	a.recsVA, err = gas.DRAMmalloc(uint64(a.blocks*a.capBlk*tform.RecordWords)*8, 0, nodes, 32<<10)
	if err != nil {
		return nil, err
	}
	a.countsVA, err = gas.DRAMmalloc(uint64(a.blocks)*8, 0, nodes, 4096)
	if err != nil {
		return nil, err
	}

	p := m.Prog
	a.PG, err = collections.NewParallelGraph(p, "ingest.pga", cfg.Lanes)
	if err != nil {
		return nil, err
	}
	if err := a.PG.Alloc(gas); err != nil {
		return nil, err
	}

	parseBody := p.Define("ingest.parse", a.parseBody)
	a.lFileChunk = p.Define("ingest.file_chunk", a.fileChunk)
	a.lRecAck = p.Define("ingest.rec_ack", a.recAck)
	insertBody := p.Define("ingest.insert", a.insertBody)
	a.lCntRead = p.Define("ingest.cnt_read", a.cntRead)
	a.lRecRead = p.Define("ingest.rec_read", a.recRead)
	a.lInsAck = p.Define("ingest.ins_ack", a.insAck)
	a.lDriver = p.Define("ingest.driver", a.driver)

	// Both phases are map-only (records flow through reliable split-phase
	// DRAM and SHT traffic, not the shuffle), so Resilience and Coalesce
	// are accepted but have nothing to act on; kvmsr ignores both without
	// a ReduceEvent.
	a.parseInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "ingest.phase1", NumKeys: uint64(a.blocks),
		MapEvent: parseBody, Lanes: cfg.Lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce,
	})
	if err != nil {
		return nil, err
	}
	a.insertInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "ingest.phase2", NumKeys: uint64(a.blocks),
		MapEvent: insertBody, Lanes: cfg.Lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce,
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Run simulates both phases.
func (a *App) Run() (updown.Stats, error) {
	a.m.Start(updown.EvwNew(a.cfg.Lanes.First, a.lDriver))
	stats, err := a.m.Run()
	if err != nil {
		return stats, err
	}
	var total uint64
	for b := 0; b < a.blocks; b++ {
		total += a.m.GAS.ReadU64(a.countsVA + uint64(b)*8)
	}
	a.Records = total
	return stats, nil
}

// Elapsed returns total simulated cycles; Phase1 and Phase2 split them.
func (a *App) Elapsed() updown.Cycles { return a.Done - a.Start }
func (a *App) Phase1() updown.Cycles  { return a.Phase1Done - a.Start }
func (a *App) Phase2() updown.Cycles  { return a.Done - a.Phase1Done }

// Bytes returns the staged input size.
func (a *App) Bytes() int { return a.fileLen }

func (a *App) driver(c *updown.Ctx) {
	if c.State() == nil {
		a.Start = c.Now()
		c.SetState("p1")
		a.parseInv.Launch(c, uint64(a.blocks), c.ContinueTo(a.lDriver))
		return
	}
	switch c.State().(string) {
	case "p1":
		a.Phase1Done = c.Now()
		c.SetState("p2")
		a.insertInv.Launch(c, uint64(a.blocks), c.ContinueTo(a.lDriver))
	case "p2":
		a.Done = c.Now()
		c.YieldTerminate()
	}
}

// ---- phase 1: parallel-block transduction ------------------------------

func (a *App) parseBody(c *updown.Ctx) {
	blockIdx := int(c.Op(0))
	st := &parseState{
		mapCont: c.Cont(),
		blockLo: blockIdx * a.cfg.BlockBytes,
		hi:      (blockIdx + 1) * a.cfg.BlockBytes,
	}
	if st.hi > a.fileLen {
		st.hi = a.fileLen
	}
	st.pos = st.blockLo
	// Blocks after the first skip to the first record boundary; block 0
	// starts parsing immediately.
	st.started = blockIdx == 0
	c.SetState(st)
	c.Cycles(8)
	a.readFileChunk(c, st)
}

// readFileChunk fetches the next 64 input bytes (8 words).
func (a *App) readFileChunk(c *updown.Ctx, st *parseState) {
	if st.pos >= a.fileLen {
		a.finishParse(c, st)
		return
	}
	word := st.pos / 8
	words := 8
	maxWords := (a.fileLen+7)/8 - word
	if words > maxWords {
		words = maxWords
	}
	c.Cycles(2)
	c.DRAMRead(a.fileVA+uint64(word)*8, words, c.ContinueTo(a.lFileChunk))
}

func (a *App) fileChunk(c *updown.Ctx) {
	st := c.State().(*parseState)
	// Unpack the words into bytes, honoring the unaligned start.
	wordBase := st.pos / 8 * 8
	var buf [64]byte
	n := 0
	for i := 0; i < c.NOps(); i++ {
		w := c.Op(i)
		for b := 0; b < 8; b++ {
			idx := wordBase + i*8 + b
			if idx < st.pos || idx >= a.fileLen {
				continue
			}
			buf[n] = byte(w >> (8 * b))
			n++
		}
	}
	chunk := buf[:n]
	// TFORM transduction costs one cycle per byte (the paper's "fast
	// parsing" transducer rate).
	c.Cycles(n)

	// Ownership rule for parallel blocks: block 0 parses from byte 0;
	// every other block parses from just after the first newline whose
	// position lies INSIDE its range, and every block parses past its
	// end until it consumes the first newline at or beyond the end.
	// Together these assign each record to exactly one block.
	start := 0 // offset within chunk where feeding begins
	if !st.started {
		nl := -1
		for i, b := range chunk {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			st.pos += n
			if st.pos >= st.hi || st.pos >= a.fileLen {
				// No record boundary inside this block: it owns
				// nothing.
				a.finishParse(c, st)
				return
			}
			a.readFileChunk(c, st)
			return
		}
		if st.pos+nl >= st.hi {
			// The first boundary is already in the next block's
			// range: this block owns nothing.
			st.pos += n
			a.finishParse(c, st)
			return
		}
		st.started = true
		start = nl + 1
	}
	feed := len(chunk) - start
	if st.pos+start+feed > st.hi {
		// Past the block end: feed only up to the first newline.
		inBlock := st.hi - (st.pos + start)
		if inBlock < 0 {
			inBlock = 0
		}
		rest := chunk[start+inBlock:]
		stop := len(rest)
		for i, b := range rest {
			if b == '\n' {
				stop = i + 1
				st.doneIn = true
				break
			}
		}
		feed = inBlock + stop
	}
	st.parser.Feed(chunk[start:start+feed], func(r tform.Record) { st.recs = append(st.recs, r) })
	st.pos += n
	if st.doneIn || st.pos >= a.fileLen {
		a.finishParse(c, st)
		return
	}
	a.readFileChunk(c, st)
}

// finishParse flushes a trailing record at EOF, then writes the block's
// records and count to the staging region.
func (a *App) finishParse(c *updown.Ctx, st *parseState) {
	if !st.flushed {
		st.flushed = true
		if st.pos >= a.fileLen && !st.doneIn {
			st.parser.Flush(func(r tform.Record) { st.recs = append(st.recs, r) })
		}
		if len(st.recs) > a.capBlk {
			panic(fmt.Sprintf("ingest: block overflow: %d records > cap %d", len(st.recs), a.capBlk))
		}
		blockIdx := st.blockLo / a.cfg.BlockBytes
		base := a.recsVA + uint64(blockIdx*a.capBlk*tform.RecordWords)*8
		ack := c.ContinueTo(a.lRecAck)
		for i, r := range st.recs {
			va := base + uint64(i*tform.RecordWords)*8
			c.DRAMWrite(va, ack, r[0], r[1], r[2], r[3])
			c.DRAMWrite(va+32, ack, r[4], r[5], r[6], r[7])
			st.pending += 2
		}
		c.DRAMWrite(a.countsVA+uint64(blockIdx)*8, ack, uint64(len(st.recs)))
		st.pending++
	}
	// Completion happens in recAck once all writes land.
}

func (a *App) recAck(c *updown.Ctx) {
	st := c.State().(*parseState)
	st.pending--
	c.Cycles(1)
	if st.pending == 0 {
		a.parseInv.Return(c, st.mapCont)
		c.YieldTerminate()
	}
}

// ---- phase 2: record insertion -----------------------------------------

func (a *App) insertBody(c *updown.Ctx) {
	st := &insertState{mapCont: c.Cont(), blockIdx: c.Op(0)}
	c.SetState(st)
	c.Cycles(4)
	c.DRAMRead(a.countsVA+st.blockIdx*8, 1, c.ContinueTo(a.lCntRead))
}

func (a *App) cntRead(c *updown.Ctx) {
	st := c.State().(*insertState)
	st.count = c.Op(0)
	a.insPump(c, st)
}

// insPump keeps up to insertWindow record reads and insertions in flight.
func (a *App) insPump(c *updown.Ctx, st *insertState) {
	for st.next < st.count && st.reads+st.inFlight < insertWindow {
		va := a.recsVA + (st.blockIdx*uint64(a.capBlk)+st.next)*tform.RecordWords*8
		st.next++
		st.reads++
		c.Cycles(2)
		c.DRAMRead(va, 8, c.ContinueTo(a.lRecRead))
	}
	if st.inFlight == 0 && st.reads == 0 && st.next >= st.count {
		a.insertInv.Return(c, st.mapCont)
		c.YieldTerminate()
	}
}

func (a *App) recRead(c *updown.Ctx) {
	st := c.State().(*insertState)
	st.reads--
	st.inFlight++
	c.Cycles(4)
	a.PG.Insert(c, c.Op(tform.FSrc), c.Op(tform.FDst), c.Op(tform.FType),
		c.ContinueTo(a.lInsAck))
	a.insPump(c, st)
}

func (a *App) insAck(c *updown.Ctx) {
	st := c.State().(*insertState)
	st.inFlight--
	c.Cycles(2)
	a.insPump(c, st)
}
