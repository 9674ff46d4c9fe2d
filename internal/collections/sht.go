package collections

import (
	"fmt"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/kvmsr"
	"updown/internal/prng"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// SHT is the scalable hash table (paper Table 3, "Scalable Hash Table"):
// buckets are distributed over a lane set, each key owned by the lane
// selected by hashing it, and all operations on a key execute as events on
// its owner lane. Bucket storage lives in global memory (allocated with a
// locality-aware DRAMmalloc layout so a lane's buckets are node-local);
// bucket occupancy counts are cached in the owner lane's scratchpad, which
// is sound because only the owner mutates its buckets.
//
// Collisions within a lane are resolved by open addressing over the lane's
// buckets: an insert probes successive buckets until one with space holds
// the key. Concurrent operations on the same home bucket are serialized by
// a per-bucket lock with a wait queue (the paper's "fine-grained locking
// for high-performance streaming graph input"); operations on different
// buckets proceed concurrently.
//
// The configuration mirrors the paper's Listing 14 (NUM_PGA_LANES,
// VERTEX_EB entries per bucket, VERTEX_BL buckets per lane).
type SHT struct {
	p    *udweave.Program
	cfg  SHTConfig
	slot udweave.Slot[shtLaneState]

	base gasmem.VA

	lOp   udweave.Label
	lScan udweave.Label
}

// SHTConfig sizes a table.
type SHTConfig struct {
	// Name prefixes event labels.
	Name string
	// Lanes is the set of owner lanes (NUM_*_LANES).
	Lanes kvmsr.LaneSet
	// BucketsPerLane (power of two; *_BL in the paper's configs).
	BucketsPerLane int
	// EntriesPerBucket (power of two; *_EB in the paper's configs).
	EntriesPerBucket int
}

// Operation kinds.
const (
	shtPut uint64 = iota
	shtPutIfAbsent
	shtGet
	shtAdd
	shtOr
)

// entryBytes is one (key, value) pair.
const entryBytes = 2 * gasmem.WordBytes

// shtLaneState is the owner-lane scratchpad state.
type shtLaneState struct {
	counts map[uint32]uint16
	locked map[uint32]bool
	waitq  map[uint32][]shtQueued
}

type shtQueued struct {
	kind, key, val, cont uint64
}

// shtOpState is one operation's thread state.
type shtOpState struct {
	kind   uint64
	key    uint64
	val    uint64
	cont   uint64
	home   uint32 // locked bucket
	bucket uint32 // probe position
	probes int
	scan   int // entries scanned within bucket
	count  int // occupancy of current bucket
}

// NewSHT registers a table with the program. Call Alloc before running.
func NewSHT(p *udweave.Program, cfg SHTConfig) (*SHT, error) {
	if err := cfg.Lanes.Validate(p.M); err != nil {
		return nil, err
	}
	if cfg.BucketsPerLane <= 0 || cfg.BucketsPerLane&(cfg.BucketsPerLane-1) != 0 {
		return nil, fmt.Errorf("collections: %s: BucketsPerLane must be a positive power of two", cfg.Name)
	}
	if cfg.EntriesPerBucket <= 0 || cfg.EntriesPerBucket&(cfg.EntriesPerBucket-1) != 0 {
		return nil, fmt.Errorf("collections: %s: EntriesPerBucket must be a positive power of two", cfg.Name)
	}
	t := &SHT{p: p, cfg: cfg, slot: udweave.NewSlot[shtLaneState](p)}
	t.lOp = p.Define(cfg.Name+".op", t.opStart)
	t.lScan = p.Define(cfg.Name+".scan", t.opScan)
	return t, nil
}

// ownerLane hashes a key to its owner.
func (t *SHT) ownerLane(key uint64) arch.NetworkID {
	return t.cfg.Lanes.First + arch.NetworkID(prng.Mix64(key)%uint64(t.cfg.Lanes.Count))
}

// homeBucket hashes a key to its home bucket within the owner lane.
func (t *SHT) homeBucket(key uint64) uint32 {
	return uint32(prng.Mix64(key^0xA5A5A5A5) % uint64(t.cfg.BucketsPerLane))
}

// Alloc reserves the bucket storage. When the lane set covers whole nodes,
// the layout places each lane's buckets on its own node.
func (t *SHT) Alloc(gas *gasmem.GAS) error {
	m := t.p.M
	bucketBytes := uint64(t.cfg.EntriesPerBucket) * entryBytes
	size := uint64(t.cfg.Lanes.Count) * uint64(t.cfg.BucketsPerLane) * bucketBytes
	firstNode := m.NodeOf(t.cfg.Lanes.First)
	lanesPerNode := m.LanesPerNode()
	alignedStart := int(t.cfg.Lanes.First)%lanesPerNode == 0
	wholeNodes := alignedStart && t.cfg.Lanes.Count%lanesPerNode == 0
	var (
		va  gasmem.VA
		err error
	)
	if wholeNodes {
		nodes := t.cfg.Lanes.Count / lanesPerNode
		perNode := size / uint64(nodes)
		if perNode&(perNode-1) == 0 {
			va, err = gas.DRAMmalloc(size, firstNode, nodes, perNode)
		} else {
			va, err = gas.DRAMmalloc(size, firstNode, nodes, 4096)
		}
	} else {
		va, err = gas.DRAMmalloc(size, 0, 1, 4096)
	}
	if err != nil {
		return err
	}
	t.base = va
	return nil
}

// bucketVA returns the storage address of a bucket.
func (t *SHT) bucketVA(laneIdx int, bucket uint32) gasmem.VA {
	bucketBytes := uint64(t.cfg.EntriesPerBucket) * entryBytes
	return t.base + (uint64(laneIdx)*uint64(t.cfg.BucketsPerLane)+uint64(bucket))*bucketBytes
}

// ---- client API (callable from any lane's events) ---------------------

// Put stores key=val, overwriting; cont receives (existed, oldVal).
func (t *SHT) Put(c *udweave.Ctx, key, val, cont uint64) {
	t.send(c, shtPut, key, val, cont)
}

// PutIfAbsent inserts only when absent; cont receives (existed, currentVal).
func (t *SHT) PutIfAbsent(c *udweave.Ctx, key, val, cont uint64) {
	t.send(c, shtPutIfAbsent, key, val, cont)
}

// Get looks up key; cont receives (found, val).
func (t *SHT) Get(c *udweave.Ctx, key, cont uint64) {
	t.send(c, shtGet, key, 0, cont)
}

// Add upserts key += delta (missing keys start at zero); cont receives
// (existed, newVal).
func (t *SHT) Add(c *udweave.Ctx, key, delta, cont uint64) {
	t.send(c, shtAdd, key, delta, cont)
}

// Or upserts key |= bits (missing keys start at zero); cont receives
// (existed, newVal). The partial-match kernel stores per-vertex pattern
// state masks with it.
func (t *SHT) Or(c *udweave.Ctx, key, bits, cont uint64) {
	t.send(c, shtOr, key, bits, cont)
}

func (t *SHT) send(c *udweave.Ctx, kind, key, val, cont uint64) {
	c.Cycles(4)
	c.SendEvent(udweave.EvwNew(t.ownerLane(key), t.lOp), cont, kind, key, val)
}

// ---- owner-lane implementation ----------------------------------------

func (t *SHT) st(c *udweave.Ctx) *shtLaneState {
	st := t.slot.Get(c)
	if st.counts == nil {
		st.counts = make(map[uint32]uint16)
		st.locked = make(map[uint32]bool)
		st.waitq = make(map[uint32][]shtQueued)
	}
	return st
}

// opStart acquires the home-bucket lock or queues behind it.
func (t *SHT) opStart(c *udweave.Ctx) {
	kind, key, val := c.Op(0), c.Op(1), c.Op(2)
	st := t.st(c)
	home := t.homeBucket(key)
	c.ScratchAccess(2)
	c.Cycles(6)
	if st.locked[home] {
		st.waitq[home] = append(st.waitq[home], shtQueued{kind, key, val, c.Cont()})
		c.YieldTerminate()
		return
	}
	st.locked[home] = true
	op := &shtOpState{kind: kind, key: key, val: val, cont: c.Cont(), home: home, bucket: home}
	c.SetState(op)
	t.stepBucket(c, st, op)
}

// stepBucket begins scanning the current probe bucket or resolves a miss.
func (t *SHT) stepBucket(c *udweave.Ctx, st *shtLaneState, op *shtOpState) {
	op.count = int(st.counts[op.bucket])
	op.scan = 0
	c.ScratchAccess(1)
	if op.count == 0 {
		t.miss(c, st, op)
		return
	}
	t.issueScan(c, op)
}

// issueScan reads the next chunk of up to four entries.
func (t *SHT) issueScan(c *udweave.Ctx, op *shtOpState) {
	laneIdx := t.cfg.Lanes.Index(c.NetworkID())
	va := t.bucketVA(laneIdx, op.bucket) + uint64(op.scan)*entryBytes
	n := (op.count - op.scan) * 2
	if n > 8 {
		n = 8
	}
	c.Cycles(3)
	c.DRAMRead(va, n, c.ContinueTo(t.lScan))
}

// opScan processes one scan chunk.
func (t *SHT) opScan(c *udweave.Ctx) {
	op := c.State().(*shtOpState)
	st := t.st(c)
	laneIdx := t.cfg.Lanes.Index(c.NetworkID())
	pairs := c.NOps() / 2
	c.Cycles(2 * pairs)
	for i := 0; i < pairs; i++ {
		if c.Op(2*i) == op.key {
			// Hit at entry op.scan+i.
			entry := op.scan + i
			cur := c.Op(2*i + 1)
			va := t.bucketVA(laneIdx, op.bucket) + uint64(entry)*entryBytes
			switch op.kind {
			case shtPut:
				c.DRAMWrite(va, udweave.IGNRCONT, op.key, op.val)
				t.finish(c, st, op, 1, cur)
			case shtPutIfAbsent:
				t.finish(c, st, op, 1, cur)
			case shtGet:
				t.finish(c, st, op, 1, cur)
			case shtAdd:
				c.DRAMWrite(va+gasmem.WordBytes, udweave.IGNRCONT, cur+op.val)
				t.finish(c, st, op, 1, cur+op.val)
			case shtOr:
				c.DRAMWrite(va+gasmem.WordBytes, udweave.IGNRCONT, cur|op.val)
				t.finish(c, st, op, 1, cur|op.val)
			}
			return
		}
	}
	op.scan += pairs
	if op.scan < op.count {
		t.issueScan(c, op)
		return
	}
	t.miss(c, st, op)
}

// miss handles "key not in this bucket": append when there is room (the
// probe invariant guarantees the key is absent from the table), otherwise
// continue probing.
func (t *SHT) miss(c *udweave.Ctx, st *shtLaneState, op *shtOpState) {
	if op.count < t.cfg.EntriesPerBucket {
		switch op.kind {
		case shtGet:
			t.finish(c, st, op, 0, 0)
		default:
			laneIdx := t.cfg.Lanes.Index(c.NetworkID())
			va := t.bucketVA(laneIdx, op.bucket) + uint64(op.count)*entryBytes
			st.counts[op.bucket] = uint16(op.count + 1)
			c.ScratchAccess(1)
			c.DRAMWrite(va, udweave.IGNRCONT, op.key, op.val)
			t.finish(c, st, op, 0, op.val)
		}
		return
	}
	op.probes++
	if op.probes >= t.cfg.BucketsPerLane {
		panic(fmt.Sprintf("collections: %s: lane %d table full (%d buckets x %d entries)",
			t.cfg.Name, c.NetworkID(), t.cfg.BucketsPerLane, t.cfg.EntriesPerBucket))
	}
	op.bucket = (op.bucket + 1) & uint32(t.cfg.BucketsPerLane-1)
	t.stepBucket(c, st, op)
}

// finish replies to the client, releases the home-bucket lock and starts
// the next queued operation.
func (t *SHT) finish(c *udweave.Ctx, st *shtLaneState, op *shtOpState, flag, val uint64) {
	c.Cycles(4)
	c.Reply(op.cont, flag, val)
	q := st.waitq[op.home]
	if len(q) > 0 {
		next := q[0]
		if len(q) == 1 {
			delete(st.waitq, op.home)
		} else {
			st.waitq[op.home] = q[1:]
		}
		// Hand the lock directly to the next queued operation.
		nop := &shtOpState{kind: next.kind, key: next.key, val: next.val,
			cont: next.cont, home: op.home, bucket: op.home}
		t.startQueued(c, st, nop)
	} else {
		delete(st.locked, op.home)
	}
	c.YieldTerminate()
}

// HostDump reads the whole table from the host after a run: it walks every
// owner lane's scratchpad bucket counts and the bucket storage in global
// memory. Verification aid; must not be called during simulation.
func (t *SHT) HostDump(eng *sim.Engine, gas *gasmem.GAS) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i := 0; i < t.cfg.Lanes.Count; i++ {
		st := t.slot.Peek(eng.PeekActor(t.cfg.Lanes.First + arch.NetworkID(i)))
		if st == nil {
			continue
		}
		for bucket, count := range st.counts {
			base := t.bucketVA(i, bucket)
			for e := 0; e < int(count); e++ {
				k := gas.ReadU64(base + uint64(e)*entryBytes)
				v := gas.ReadU64(base + uint64(e)*entryBytes + gasmem.WordBytes)
				out[k] = v
			}
		}
	}
	return out
}

// startQueued resumes a queued operation in a fresh thread on this lane.
func (t *SHT) startQueued(c *udweave.Ctx, st *shtLaneState, op *shtOpState) {
	// Re-dispatch through a self message so the operation runs as its
	// own thread with its own state.
	c.Cycles(2)
	c.SendEvent(udweave.EvwNew(c.NetworkID(), t.lOp), op.cont, op.kind, op.key, op.val)
	// The lock is released here and re-acquired by opStart when the
	// self-message arrives; an operation that loses that race simply
	// re-queues.
	delete(st.locked, op.home)
}
