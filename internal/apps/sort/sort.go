// Package sort implements the paper's Bucket Sort / Scalable Global Sort
// (Table 3: "Bucket Sort — kvmap"; Table 5: "Scalable Global Sort", 158
// LoC): a KVMSR invocation maps over the unsorted input array, emitting
// each element to the bucket owning its value range; bucket-owner lanes
// append elements into per-bucket global-memory segments (fine-grained
// slot assignment, like the BFS frontier); a final doAll sorts each bucket
// locally. Concatenating the buckets yields the globally sorted array.
package sort

import (
	"fmt"
	"slices"

	"updown"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// Config selects run parameters.
type Config struct {
	// Lanes is the KVMSR lane set (default: whole machine).
	Lanes kvmsr.LaneSet
	// Buckets is the number of value-range buckets (default: one per
	// 32 lanes). Each bucket is owned by one lane.
	Buckets int
	// MaxValue bounds the key domain (exclusive); keys are assumed
	// roughly uniform over [0, MaxValue).
	MaxValue uint64
	// BucketCap caps one bucket's elements (default: 4x the even share).
	BucketCap int
}

// App is a sort program instance; its Driver's shuffle is the scatter
// invocation.
type App struct {
	updown.Driver
	cfg Config
	n   int

	inVA      gasmem.VA
	bucketsVA gasmem.VA

	sortInv *kvmsr.Invocation
	buckets udweave.Slot[bucketState]

	lInChunk udweave.Label
	lInsert  udweave.Label
	lLoaded  udweave.Label
	lStored  udweave.Label
}

// mapState streams one map task's input chunk.
type mapState struct {
	mapCont uint64
	lo, hi  uint64
	loaded  uint64
}

// bucketState is the owner lane's per-bucket occupancy (scratchpad).
type bucketState struct {
	counts map[uint32]uint32
}

// sortState drives one bucket's local sort.
type sortState struct {
	mapCont uint64
	bucket  uint32
	count   uint32
	loaded  uint32
	vals    []uint64
	writes  int
}

// elemsPerMapTask amortizes task overhead over a small input run.
const elemsPerMapTask = 8

// New stages the input array and registers the program.
func New(m *updown.Machine, input []uint64, cfg Config) (*App, error) {
	if len(input) == 0 {
		return nil, fmt.Errorf("sort: empty input")
	}
	if cfg.Lanes.Count == 0 {
		cfg.Lanes = kvmsr.AllLanes(m.Arch)
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = cfg.Lanes.Count / 32
		if cfg.Buckets < 1 {
			cfg.Buckets = 1
		}
	}
	if cfg.MaxValue == 0 {
		cfg.MaxValue = 1 << 32
	}
	if cfg.BucketCap == 0 {
		cfg.BucketCap = 4*(len(input)/cfg.Buckets) + 64
	}
	if cfg.Buckets > cfg.Lanes.Count {
		return nil, fmt.Errorf("sort: %d buckets exceed %d lanes", cfg.Buckets, cfg.Lanes.Count)
	}
	a := &App{Driver: updown.Driver{M: m, Lane: cfg.Lanes.First}, cfg: cfg, n: len(input)}
	gas := m.GAS
	var err error
	a.inVA, err = gas.DRAMmalloc(uint64(len(input))*gasmem.WordBytes, 0, gasmem.FloorPow2(m.Arch.Nodes), 32<<10)
	if err != nil {
		return nil, err
	}
	for i, v := range input {
		if v >= cfg.MaxValue {
			return nil, fmt.Errorf("sort: input[%d] = %d outside [0, %d)", i, v, cfg.MaxValue)
		}
		gas.WriteU64(a.inVA+uint64(i)*gasmem.WordBytes, v)
	}
	a.bucketsVA, err = gas.DRAMmalloc(uint64(cfg.Buckets*cfg.BucketCap)*gasmem.WordBytes, 0, gasmem.FloorPow2(m.Arch.Nodes), 32<<10)
	if err != nil {
		return nil, err
	}

	p := m.Prog
	a.buckets = udweave.NewSlot[bucketState](p)
	mapBody := p.Define("sort.kv_map", a.kvMap)
	a.lInChunk = p.Define("sort.in_chunk", a.inChunk)
	a.lInsert = p.Define("sort.insert", a.insert)
	sortBody := p.Define("sort.bucket_sort", a.bucketSort)
	a.lLoaded = p.Define("sort.loaded", a.loaded)
	a.lStored = p.Define("sort.stored", a.stored)
	a.Label = p.Define("sort.driver", a.driver)

	nTasks := (len(input) + elemsPerMapTask - 1) / elemsPerMapTask
	a.Shuffle, err = kvmsr.New(p, kvmsr.Spec{
		Name: "sort.scatter", NumKeys: uint64(nTasks),
		MapEvent: mapBody, ReduceEvent: a.lInsert,
		ReduceBinding: kvmsr.ReduceFunc(a.bucketOwner),
		Lanes:         cfg.Lanes,
		Resilience:    m.Resilience,
		Coalesce:      m.Coalesce,
	})
	if err != nil {
		return nil, err
	}
	a.sortInv, err = kvmsr.New(p, kvmsr.Spec{
		Name: "sort.local", NumKeys: uint64(cfg.Buckets),
		MapEvent:   sortBody,
		MapBinding: kvmsr.Stride{Step: max(cfg.Lanes.Count/cfg.Buckets, 1)},
		Lanes:      cfg.Lanes,
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// bucketOf maps a value to its bucket.
func (a *App) bucketOf(v uint64) uint32 {
	b := v * uint64(a.cfg.Buckets) / a.cfg.MaxValue
	if b >= uint64(a.cfg.Buckets) {
		b = uint64(a.cfg.Buckets) - 1
	}
	return uint32(b)
}

// bucketOwner is the reduce binding: bucket b is owned by a fixed lane.
func (a *App) bucketOwner(key uint64, ls kvmsr.LaneSet) updown.NetworkID {
	stride := max(ls.Count/a.cfg.Buckets, 1)
	return ls.First + updown.NetworkID(int(key)*stride%ls.Count)
}

// ownedBucketVA returns bucket b's segment base.
func (a *App) bucketVA(b uint32) gasmem.VA {
	return a.bucketsVA + uint64(int(b)*a.cfg.BucketCap)*gasmem.WordBytes
}

// Result reads back the sorted array (host side, post-run).
func (a *App) Result() []uint64 {
	out := make([]uint64, 0, a.n)
	for b := 0; b < a.cfg.Buckets; b++ {
		cnt := a.M.GAS.ReadU64(a.bucketVA(uint32(b)))
		base := a.bucketVA(uint32(b)) + gasmem.WordBytes
		for i := uint64(0); i < cnt; i++ {
			out = append(out, a.M.GAS.ReadU64(base+i*gasmem.WordBytes))
		}
	}
	return out
}

func (a *App) driver(c *updown.Ctx) {
	if c.State() == nil {
		a.Start = c.Now()
		c.SetState("scatter")
		nTasks := uint64((a.n + elemsPerMapTask - 1) / elemsPerMapTask)
		a.Shuffle.Launch(c, nTasks, c.ContinueTo(a.Label))
		return
	}
	switch c.State().(string) {
	case "scatter":
		c.SetState("sort")
		a.sortInv.Launch(c, uint64(a.cfg.Buckets), c.ContinueTo(a.Label))
	case "sort":
		a.Done = c.Now()
		c.YieldTerminate()
	}
}

// kvMap streams one run of input elements and emits each to its bucket.
func (a *App) kvMap(c *updown.Ctx) {
	task := c.Op(0)
	lo := task * elemsPerMapTask
	hi := lo + elemsPerMapTask
	if hi > uint64(a.n) {
		hi = uint64(a.n)
	}
	c.SetState(&mapState{mapCont: c.Cont(), lo: lo, hi: hi})
	c.Cycles(4)
	c.DRAMRead(a.inVA+lo*gasmem.WordBytes, int(hi-lo), c.ContinueTo(a.lInChunk))
}

func (a *App) inChunk(c *updown.Ctx) {
	st := c.State().(*mapState)
	n := c.NOps()
	c.Cycles(3 * n)
	for i := 0; i < n; i++ {
		v := c.Op(i)
		a.Shuffle.Emit(c, uint64(a.bucketOf(v)), v)
	}
	a.Shuffle.Return(c, st.mapCont)
	c.YieldTerminate()
}

func (a *App) bst(c *updown.Ctx) *bucketState {
	st := a.buckets.Get(c)
	if st.counts == nil {
		st.counts = make(map[uint32]uint32)
	}
	return st
}

// insert is the kv_reduce: the owner lane assigns the slot (atomic within
// the event) and writes the element into the bucket segment.
func (a *App) insert(c *updown.Ctx) {
	bucket := uint32(c.Op(0))
	v := c.Op(1)
	st := a.bst(c)
	slot := st.counts[bucket]
	if int(slot) >= a.cfg.BucketCap-1 {
		panic(fmt.Sprintf("sort: bucket %d overflow (cap %d)", bucket, a.cfg.BucketCap))
	}
	st.counts[bucket] = slot + 1
	c.ScratchAccess(2)
	c.Cycles(4)
	// Word 0 of the segment holds the final count (written by the sort
	// phase); elements start at word 1.
	c.DRAMWrite(a.bucketVA(bucket)+uint64(1+slot)*gasmem.WordBytes,
		c.ContinueTo(a.lStored), v)
}

// stored acknowledges one insert write.
func (a *App) stored(c *updown.Ctx) {
	// This label serves two roles: reduce-write acks (thread state nil)
	// and sort-phase write-back acks (sortState).
	if st, ok := c.State().(*sortState); ok {
		st.writes--
		c.Cycles(1)
		if st.writes == 0 {
			a.sortInv.Return(c, st.mapCont)
			c.YieldTerminate()
		}
		return
	}
	a.Shuffle.ReduceDone(c)
	c.YieldTerminate()
}

// bucketSort is the second-phase map task: load the owned bucket, sort it
// in scratchpad, write it back with its count.
func (a *App) bucketSort(c *updown.Ctx) {
	bucket := uint32(c.Op(0))
	st := &sortState{mapCont: c.Cont(), bucket: bucket}
	// The owner lane of this bucket is this lane (Stride binding matches
	// bucketOwner); its scratch count is authoritative.
	st.count = a.bst(c).counts[bucket]
	c.SetState(st)
	c.ScratchAccess(1)
	if st.count == 0 {
		// Still publish the zero count.
		st.writes = 1
		c.DRAMWrite(a.bucketVA(bucket), c.ContinueTo(a.lStored), 0)
		return
	}
	st.vals = make([]uint64, 0, st.count)
	a.loadPump(c, st)
}

// loadPump issues the next chunked bucket read (one outstanding read; the
// local sort dominates this phase).
func (a *App) loadPump(c *updown.Ctx, st *sortState) {
	off := st.loaded
	if off >= st.count {
		a.finishSort(c, st)
		return
	}
	n := st.count - off
	if n > 8 {
		n = 8
	}
	c.Cycles(2)
	c.DRAMRead(a.bucketVA(st.bucket)+uint64(1+off)*gasmem.WordBytes, int(n), c.ContinueTo(a.lLoaded))
}

func (a *App) loaded(c *updown.Ctx) {
	st := c.State().(*sortState)
	n := c.NOps()
	for i := 0; i < n; i++ {
		st.vals = append(st.vals, c.Op(i))
	}
	st.loaded += uint32(n)
	a.loadPump(c, st)
}

// finishSort sorts in scratchpad (charging n log n compare cycles) and
// writes back count + elements.
func (a *App) finishSort(c *updown.Ctx, st *sortState) {
	slices.Sort(st.vals)
	n := len(st.vals)
	logN := 0
	for t := n; t > 1; t >>= 1 {
		logN++
	}
	c.Cycles(3 * n * max(logN, 1))
	ack := c.ContinueTo(a.lStored)
	st.writes = 1
	c.DRAMWrite(a.bucketVA(st.bucket), ack, uint64(n))
	for off := 0; off < n; off += 7 {
		hi := off + 7
		if hi > n {
			hi = n
		}
		st.writes++
		c.DRAMWrite(a.bucketVA(st.bucket)+uint64(1+off)*gasmem.WordBytes, ack, st.vals[off:hi]...)
	}
}
