// Deterministic checkpoint/restore for the engine.
//
// Engine.Checkpoint serializes the complete simulation state between
// runs — pending messages (heap-resident and parked behind busy actors),
// per-actor clocks and wait queues, injection-port occupancy, aggregate
// statistics, and the private state of every actor that implements
// Snapshotter — into a versioned binary stream. Engine.Restore rebuilds
// that state in an engine constructed for the same machine, after which
// Run continues bit-identically to a run that was never interrupted.
//
// The byte stream is canonical: heap messages are written in the global
// (Deliver, Src, Seq) total order and actor records in NetworkID order,
// so checkpoints of the same simulation state are byte-identical
// regardless of the host shard count that produced them.
//
// Restore validates before it mutates: the magic, version, machine
// section and actor-space shape are checked first, then the whole stream
// is decoded and checked, and any error returns a *RestoreError with the
// engine untouched. Only an actor payload that fails to apply
// (RestoreActorFailed) leaves the engine in an undefined state, to be
// discarded. Nothing is sized from a count in the stream before the data
// behind it has arrived.
package sim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"updown/internal/arch"
)

// Snapshotter is implemented by actors whose private state participates
// in Engine.Checkpoint/Restore. Actors that do not implement it are
// skipped: their state is assumed reconstructible (or empty) at restore
// time. Lanes instantiated lazily and never touched carry no state and
// are skipped automatically.
type Snapshotter interface {
	// Snapshot writes the actor's state to w. It must be deterministic:
	// equal states must produce equal bytes.
	Snapshot(w *SnapWriter) error
	// RestoreSnapshot rebuilds the actor's state from r, which holds
	// exactly the bytes a prior Snapshot wrote.
	RestoreSnapshot(r *SnapReader) error
}

// Stager is implemented by Snapshotters that can decode and check a
// payload without applying it. StageRestore stages every Stager's payload,
// so one it rejects leaves the engine untouched; commit installs it.
type Stager interface {
	StageSnapshot(r *SnapReader) (commit func(), err error)
}

const (
	snapMagic = "UDSIMCKP"
	// Version 2 added the Failovers fault counter to the stats record.
	snapVersion = uint32(2)
	snapEnd     = uint64(0x55444b5045444e44) // "UDKPEND" sentinel
)

// RestoreErrorKind classifies why Engine.Restore rejected a snapshot.
type RestoreErrorKind uint8

const (
	// RestoreBadMagic: the stream is not an engine checkpoint.
	RestoreBadMagic RestoreErrorKind = iota
	// RestoreBadVersion: the checkpoint format version is unsupported.
	RestoreBadVersion
	// RestoreMachineMismatch: the checkpoint was taken on a machine with
	// a different architecture description.
	RestoreMachineMismatch
	// RestoreShapeMismatch: the actor-ID space differs (auxiliary actors
	// registered before Checkpoint were not registered before Restore,
	// or vice versa), or a Stager's payload holds another program's state.
	RestoreShapeMismatch
	// RestoreCorrupt: the stream is truncated or internally inconsistent.
	RestoreCorrupt
	// RestoreActorFailed: an actor payload could not be applied (the
	// actor is missing, does not implement Snapshotter, or its
	// RestoreSnapshot failed).
	RestoreActorFailed
)

func (k RestoreErrorKind) String() string {
	switch k {
	case RestoreBadMagic:
		return "bad magic"
	case RestoreBadVersion:
		return "unsupported version"
	case RestoreMachineMismatch:
		return "machine mismatch"
	case RestoreShapeMismatch:
		return "actor-space mismatch"
	case RestoreCorrupt:
		return "corrupt stream"
	case RestoreActorFailed:
		return "actor restore failed"
	}
	return "unknown"
}

// RestoreError is the typed error Engine.Restore returns. For every kind
// but RestoreActorFailed the engine has not been mutated; after that one
// it must be discarded.
type RestoreError struct {
	Kind   RestoreErrorKind
	Detail string
}

func (e *RestoreError) Error() string {
	return fmt.Sprintf("sim: restore rejected (%s): %s", e.Kind, e.Detail)
}

func restoreErrf(k RestoreErrorKind, format string, args ...any) *RestoreError {
	return &RestoreError{Kind: k, Detail: fmt.Sprintf(format, args...)}
}

// SnapWriter encodes checkpoint sections. All integers are fixed-width
// little-endian; byte strings are length-prefixed. The first error
// sticks: later writes are no-ops and Err returns it.
type SnapWriter struct {
	w   io.Writer
	buf [8]byte
	err error
}

// NewSnapWriter wraps w. Callers that need buffering wrap w themselves.
func NewSnapWriter(w io.Writer) *SnapWriter { return &SnapWriter{w: w} }

// Err returns the first write error, or nil.
func (w *SnapWriter) Err() error { return w.err }

func (w *SnapWriter) write(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

// U64 writes a fixed-width unsigned word.
func (w *SnapWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.write(w.buf[:8])
}

// I64 writes a fixed-width signed word.
func (w *SnapWriter) I64(v int64) { w.U64(uint64(v)) }

// U32 writes a fixed-width 32-bit word.
func (w *SnapWriter) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U8 writes one byte.
func (w *SnapWriter) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// F64 writes a float64 bit pattern.
func (w *SnapWriter) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte string.
func (w *SnapWriter) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.write(b)
}

// String writes a length-prefixed string.
func (w *SnapWriter) String(s string) { w.Bytes([]byte(s)) }

// Gob writes a length-prefixed, self-contained gob encoding of v, or a
// zero length for nil. Concrete types reached through interfaces must be
// registered with encoding/gob.Register by the application.
func (w *SnapWriter) Gob(v any) error {
	if w.err != nil {
		return w.err
	}
	if v == nil {
		w.U64(0)
		return w.err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return err
	}
	w.Bytes(buf.Bytes())
	return w.err
}

// SnapReader decodes checkpoint sections written by SnapWriter. The
// first error sticks; reads after it return zero values.
type SnapReader struct {
	r   io.Reader
	buf [8]byte
	err error
}

// NewSnapReader wraps r. Callers that need buffering wrap r themselves.
func NewSnapReader(r io.Reader) *SnapReader { return &SnapReader{r: r} }

// Err returns the first read error, or nil.
func (r *SnapReader) Err() error { return r.err }

func (r *SnapReader) read(b []byte) {
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
}

// U64 reads a fixed-width unsigned word.
func (r *SnapReader) U64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads a fixed-width signed word.
func (r *SnapReader) I64() int64 { return int64(r.U64()) }

// U32 reads a fixed-width 32-bit word.
func (r *SnapReader) U32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U8 reads one byte.
func (r *SnapReader) U8() uint8 {
	r.read(r.buf[:1])
	if r.err != nil {
		return 0
	}
	return r.buf[0]
}

// F64 reads a float64 bit pattern.
func (r *SnapReader) F64() float64 { return math.Float64frombits(r.U64()) }

// restoreChunk bounds what a restore allocates ahead of the data: buffers
// sized by a count read from the stream start at most this many elements
// and grow as the elements arrive, so a count the stream cannot back ends
// at EOF, not in a count-sized allocation.
const restoreChunk = 4096

// Bytes reads a length-prefixed byte string of at most max bytes, growing
// the buffer as the bytes arrive (see restoreChunk).
func (r *SnapReader) Bytes(max uint64) []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > max {
		r.err = fmt.Errorf("length %d exceeds limit %d", n, max)
		return nil
	}
	b := make([]byte, 0, min(n, restoreChunk))
	for uint64(len(b)) < n && r.err == nil {
		k := int(min(n-uint64(len(b)), 16*restoreChunk))
		b = slices.Grow(b, k)[:len(b)+k]
		r.read(b[len(b)-k:])
	}
	if r.err != nil {
		return nil
	}
	return b
}

// String reads a length-prefixed string.
func (r *SnapReader) String(max uint64) string { return string(r.Bytes(max)) }

// Gob reads a value written by SnapWriter.Gob (nil for zero length).
func (r *SnapReader) Gob() (any, error) {
	data := r.Bytes(1 << 30)
	if r.err != nil {
		return nil, r.err
	}
	if len(data) == 0 {
		return nil, nil
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// machineWords flattens the architecture description into fixed-width
// words; Restore compares them field-for-field against its own machine.
func machineWords(m arch.Machine) []uint64 {
	return []uint64{
		uint64(m.Nodes), uint64(m.AccelsPerNode), uint64(m.LanesPerAccel),
		math.Float64bits(m.ClockHz),
		uint64(m.LatSameLane), uint64(m.LatSameAccel), uint64(m.LatSameNode), uint64(m.LatCrossNode),
		uint64(m.MsgBytes), uint64(m.InjectBytesPerCycle),
		uint64(m.DRAMLatency), uint64(m.DRAMBytesPerCycle), m.DRAMBytesPerNode,
		uint64(m.ScratchBytesPerLane),
		uint64(m.CostThreadCreate), uint64(m.CostThreadYield), uint64(m.CostThreadDealloc),
		uint64(m.CostScratchAccess), uint64(m.CostSendMessage), uint64(m.CostSendDRAM),
		uint64(m.CostEventDispatch), uint64(m.CostInstruction),
	}
}

func writeMessage(w *SnapWriter, m *Message) {
	w.I64(m.Deliver)
	w.U32(uint32(m.Src))
	w.U64(m.Seq)
	w.U32(uint32(m.Dst))
	w.U8(m.Kind)
	w.U8(m.NOps)
	if m.retry {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(m.Event)
	w.U64(m.Cont)
	for _, op := range m.Ops {
		w.U64(op)
	}
}

func readMessage(r *SnapReader) Message {
	var m Message
	m.Deliver = r.I64()
	m.Src = arch.NetworkID(int32(r.U32()))
	m.Seq = r.U64()
	m.Dst = arch.NetworkID(int32(r.U32()))
	m.Kind = r.U8()
	m.NOps = r.U8()
	m.retry = r.U8() != 0
	m.Event = r.U64()
	m.Cont = r.U64()
	for i := range m.Ops {
		m.Ops[i] = r.U64()
	}
	return m
}

// Checkpoint writes the engine's complete simulation state to w. It
// must be called between runs (never while Run is in progress); pausing
// a run at a chosen cycle first is what RunUntil is for. The stream is
// canonical: checkpointing the same simulation state yields identical
// bytes at every host shard count.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.running {
		panic("sim: Checkpoint called while Run is in progress")
	}
	bw := bufio.NewWriter(w)
	sw := NewSnapWriter(bw)
	sw.write([]byte(snapMagic))
	sw.U32(snapVersion)
	for _, v := range machineWords(e.M) {
		sw.U64(v)
	}
	sw.U64(uint64(len(e.actors)))
	sw.U64(e.hostSeq)
	for _, v := range e.injBusy64 {
		sw.I64(v)
	}
	// Aggregate statistics (LanesTouched is derived from actor state).
	st := e.totals()
	sw.I64(st.FinalTime)
	sw.I64(st.Events)
	sw.I64(st.DRAMReads)
	sw.I64(st.DRAMWrites)
	sw.I64(st.DRAMBytes)
	sw.I64(st.Sends)
	sw.I64(st.ShuffleMsgs)
	sw.I64(st.ShuffleTuples)
	sw.I64(st.BusyCycles)
	sw.I64(st.Faults.Dropped)
	sw.I64(st.Faults.Dupped)
	sw.I64(st.Faults.Delayed)
	sw.I64(st.Faults.DeadLetters)
	sw.I64(st.Faults.Failovers)
	sw.I64(st.Faults.Stalled)
	// Heap-resident messages (including floating retries, excluding
	// parked wait-queue entries), in the global total order.
	var msgs []Message
	for _, s := range e.shards {
		msgs = s.heap.appendQueued(msgs)
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].before(&msgs[j]) })
	sw.U64(uint64(len(msgs)))
	for i := range msgs {
		writeMessage(sw, &msgs[i])
	}
	// Sparse per-actor state, in NetworkID order. Wait-queue messages
	// are embedded in FIFO order — the pop order is part of the
	// deterministic schedule and is not reconstructible from the
	// (Deliver, Src, Seq) key once deliveries have been bumped.
	var nstate uint64
	for i := range e.state {
		if stateNonZero(&e.state[i]) {
			nstate++
		}
	}
	sw.U64(nstate)
	for i := range e.state {
		a := &e.state[i]
		if !stateNonZero(a) {
			continue
		}
		sw.U32(uint32(i))
		if a.used {
			sw.U8(1)
		} else {
			sw.U8(0)
		}
		sw.I64(a.freeAt)
		sw.U64(a.seq)
		sw.I64(a.busy)
		wq := a.waitq[a.waitqHead:]
		sw.U64(uint64(len(wq)))
		if len(wq) > 0 {
			h := &e.shards[e.shardOf(arch.NetworkID(i))].heap
			for _, mi := range wq {
				writeMessage(sw, h.at(mi))
			}
		}
	}
	// Actor payloads, in NetworkID order.
	var nact uint64
	for _, a := range e.actors {
		if _, ok := a.(Snapshotter); ok {
			nact++
		}
	}
	sw.U64(nact)
	for i, a := range e.actors {
		s, ok := a.(Snapshotter)
		if !ok {
			continue
		}
		sw.U32(uint32(i))
		var buf bytes.Buffer
		pw := NewSnapWriter(&buf)
		if err := s.Snapshot(pw); err != nil {
			return fmt.Errorf("sim: checkpoint of actor %d: %w", i, err)
		}
		if err := pw.Err(); err != nil {
			return fmt.Errorf("sim: checkpoint of actor %d: %w", i, err)
		}
		sw.Bytes(buf.Bytes())
	}
	sw.U64(snapEnd)
	if err := sw.Err(); err != nil {
		return fmt.Errorf("sim: checkpoint write: %w", err)
	}
	return bw.Flush()
}

func stateNonZero(a *actorState) bool {
	return a.used || a.freeAt != 0 || a.seq != 0 || a.busy != 0 ||
		a.waitqLen() > 0 || a.floating != 0
}

// snapState is the fully-decoded checkpoint, staged before any engine
// mutation.
type snapState struct {
	nActors  int
	hostSeq  uint64
	inj      []int64
	stats    Stats
	heapMsgs []Message
	actors   []snapActor
	payloads []snapPayload
}

type snapActor struct {
	id     int
	used   bool
	freeAt arch.Cycles
	seq    uint64
	busy   int64
	waitq  []Message
}

type snapPayload struct {
	id   int
	data []byte
	// actor and commit are set for a staged payload (see Stager).
	actor  Actor
	commit func()
}

// Restore rebuilds the simulation state serialized by Checkpoint into
// this engine. The engine must have been constructed for the same
// machine (and with the same auxiliary actors registered); mismatches
// are rejected with a *RestoreError before any state is modified.
// Restore replaces pending messages, actor clocks and statistics —
// restoring into an engine that has already simulated discards that
// work. After a successful Restore, Run continues bit-identically to an
// uninterrupted run.
func (e *Engine) Restore(r io.Reader) error {
	commit, err := e.StageRestore(r)
	if err != nil {
		return err
	}
	return commit()
}

// StageRestore is Restore in two steps: it decodes and validates the
// whole checkpoint without modifying the engine, and commit installs it.
// Only commit's payloads of actors that are not Stagers can still fail
// (RestoreActorFailed). A
// caller restoring several sections together (the machine checkpoint)
// stages each before committing any.
func (e *Engine) StageRestore(r io.Reader) (commit func() error, err error) {
	if e.running {
		panic("sim: Restore called while Run is in progress")
	}
	snap, err := e.decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	return func() error { return e.applySnapshot(snap) }, nil
}

// validMsg reports whether a decoded message can be scheduled: a
// registered destination and an operand count the arena holds.
func (e *Engine) validMsg(m *Message) bool {
	return m.Dst >= 0 && int(m.Dst) < len(e.actors) && m.NOps <= MaxOperands
}

// decodeSnapshot reads and checks a checkpoint stream into a snapState.
func (e *Engine) decodeSnapshot(r io.Reader) (*snapState, error) {
	br := bufio.NewReader(r)
	sr := NewSnapReader(br)
	magic := make([]byte, len(snapMagic))
	sr.read(magic)
	if sr.err != nil || string(magic) != snapMagic {
		return nil, restoreErrf(RestoreBadMagic, "not an engine checkpoint (got %q)", magic)
	}
	if v := sr.U32(); v != snapVersion {
		return nil, restoreErrf(RestoreBadVersion, "format version %d, this build reads %d", v, snapVersion)
	}
	want := machineWords(e.M)
	for i, w := range want {
		if got := sr.U64(); sr.err == nil && got != w {
			return nil, restoreErrf(RestoreMachineMismatch,
				"machine word %d differs: checkpoint %d, engine %d", i, got, w)
		}
	}
	if sr.err != nil {
		return nil, restoreErrf(RestoreCorrupt, "truncated machine section: %v", sr.err)
	}
	snap := &snapState{}
	snap.nActors = int(sr.U64())
	if sr.err == nil && snap.nActors != len(e.actors) {
		return nil, restoreErrf(RestoreShapeMismatch,
			"checkpoint has %d actors, engine has %d (auxiliary actors must be registered before Restore)",
			snap.nActors, len(e.actors))
	}
	snap.hostSeq = sr.U64()
	snap.inj = make([]int64, len(e.injBusy64))
	for i := range snap.inj {
		snap.inj[i] = sr.I64()
	}
	snap.stats.FinalTime = sr.I64()
	snap.stats.Events = sr.I64()
	snap.stats.DRAMReads = sr.I64()
	snap.stats.DRAMWrites = sr.I64()
	snap.stats.DRAMBytes = sr.I64()
	snap.stats.Sends = sr.I64()
	snap.stats.ShuffleMsgs = sr.I64()
	snap.stats.ShuffleTuples = sr.I64()
	snap.stats.BusyCycles = sr.I64()
	snap.stats.Faults.Dropped = sr.I64()
	snap.stats.Faults.Dupped = sr.I64()
	snap.stats.Faults.Delayed = sr.I64()
	snap.stats.Faults.DeadLetters = sr.I64()
	snap.stats.Faults.Failovers = sr.I64()
	snap.stats.Faults.Stalled = sr.I64()
	nmsgs := sr.U64()
	snap.heapMsgs = make([]Message, 0, min(nmsgs, restoreChunk))
	for i := uint64(0); i < nmsgs && sr.err == nil; i++ {
		m := readMessage(sr)
		if sr.err == nil && !e.validMsg(&m) {
			return nil, restoreErrf(RestoreCorrupt, "heap message to actor %d with %d operands", m.Dst, m.NOps)
		}
		snap.heapMsgs = append(snap.heapMsgs, m)
	}
	nstate := sr.U64()
	for i := uint64(0); i < nstate && sr.err == nil; i++ {
		var a snapActor
		a.id = int(sr.U32())
		a.used = sr.U8() != 0
		a.freeAt = sr.I64()
		a.seq = sr.U64()
		a.busy = sr.I64()
		nw := sr.U64()
		for j := uint64(0); j < nw && sr.err == nil; j++ {
			m := readMessage(sr)
			if sr.err == nil && !e.validMsg(&m) {
				return nil, restoreErrf(RestoreCorrupt, "parked message to actor %d with %d operands", m.Dst, m.NOps)
			}
			a.waitq = append(a.waitq, m)
		}
		if a.id < 0 || a.id >= len(e.actors) {
			return nil, restoreErrf(RestoreCorrupt, "actor record for out-of-range id %d", a.id)
		}
		snap.actors = append(snap.actors, a)
	}
	npay := sr.U64()
	for i := uint64(0); i < npay && sr.err == nil; i++ {
		id := int(sr.U32())
		data := sr.Bytes(1 << 32)
		if sr.err != nil {
			break
		}
		if id < 0 || id >= len(e.actors) {
			return nil, restoreErrf(RestoreCorrupt, "payload for out-of-range actor id %d", id)
		}
		snap.payloads = append(snap.payloads, snapPayload{id: id, data: data})
	}
	if sr.err == nil && sr.U64() != snapEnd {
		return nil, restoreErrf(RestoreCorrupt, "missing end sentinel")
	}
	if sr.err != nil {
		return nil, restoreErrf(RestoreCorrupt, "truncated stream: %v", sr.err)
	}
	// The wait-queue invariant must hold or the scheduler would strand
	// parked messages: an actor with parked messages has a floating retry
	// in the heap.
	floating := map[int]bool{}
	for i := range snap.heapMsgs {
		if m := &snap.heapMsgs[i]; m.retry {
			floating[int(m.Dst)] = true
		}
	}
	for _, a := range snap.actors {
		if len(a.waitq) > 0 && !floating[a.id] {
			return nil, restoreErrf(RestoreCorrupt, "actor %d has %d parked messages but no floating retry", a.id, len(a.waitq))
		}
	}
	for i := range snap.payloads {
		p := &snap.payloads[i]
		a := e.actors[p.id]
		if a == nil && p.id < e.totalLanes && e.factory != nil {
			a = e.factory(arch.NetworkID(p.id)) // installed at commit
		}
		s, ok := a.(Stager)
		if !ok {
			continue
		}
		commit, err := s.StageSnapshot(NewSnapReader(bytes.NewReader(p.data)))
		if err != nil {
			var re *RestoreError
			if errors.As(err, &re) {
				return nil, re
			}
			return nil, restoreErrf(RestoreCorrupt, "actor %d: %v", p.id, err)
		}
		p.actor, p.commit = a, commit
	}
	return snap, nil
}

// applySnapshot installs a decoded checkpoint: engine state first, then
// the actor payloads, the one step that can still fail.
func (e *Engine) applySnapshot(snap *snapState) error {
	e.hostSeq = snap.hostSeq
	copy(e.injBusy64, snap.inj)
	for i := range e.state {
		e.state[i] = actorState{}
	}
	for si, s := range e.shards {
		s.heap = msgHeap{}
		for p := 0; p < 2; p++ {
			for j := range s.outbox[p] {
				s.outbox[p][j] = s.outbox[p][j][:0]
			}
		}
		s.resetOut()
		s.parity = 0
		s.stats = Stats{}
		if si == 0 {
			s.stats = snap.stats
		}
	}
	// Wait queues first: parked messages occupy arena slots outside the
	// heap, exactly as the scheduler left them.
	for _, a := range snap.actors {
		st := &e.state[a.id]
		st.used = a.used
		st.freeAt = a.freeAt
		st.seq = a.seq
		st.busy = a.busy
		if len(a.waitq) > 0 {
			h := &e.shards[e.shardOf(arch.NetworkID(a.id))].heap
			for i := range a.waitq {
				st.waitqPush(h.alloc(&a.waitq[i]))
			}
		}
	}
	// Heap messages, preserving retry flags (and their bumped delivery
	// times); each retry accounts for one floating entry of its
	// destination.
	for i := range snap.heapMsgs {
		m := &snap.heapMsgs[i]
		e.shards[e.shardOf(m.Dst)].heap.push(m)
		if m.retry {
			e.state[m.Dst].floating++
		}
	}
	for _, p := range snap.payloads {
		if p.commit != nil {
			e.actors[p.id] = p.actor
			p.commit()
			continue
		}
		a := e.Actor(arch.NetworkID(p.id))
		if a == nil {
			return restoreErrf(RestoreActorFailed, "actor %d has a payload but is not registered", p.id)
		}
		s, ok := a.(Snapshotter)
		if !ok {
			return restoreErrf(RestoreActorFailed, "actor %d (%T) does not implement Snapshotter", p.id, a)
		}
		pr := NewSnapReader(bytes.NewReader(p.data))
		if err := s.RestoreSnapshot(pr); err != nil {
			return restoreErrf(RestoreActorFailed, "actor %d: %v", p.id, err)
		}
		if err := pr.Err(); err != nil && !errors.Is(err, io.EOF) {
			return restoreErrf(RestoreActorFailed, "actor %d payload: %v", p.id, err)
		}
	}
	return nil
}
