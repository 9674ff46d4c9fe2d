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
// The layout is stated once, in snapState.code, which runs through a
// snap.Codec in both directions. The stream is canonical: heap messages
// are written in the global (Deliver, Src, Seq) total order and actor
// records in NetworkID order, so checkpoints of the same simulation state
// are byte-identical regardless of the host shard count that produced
// them.
//
// Restore installs nothing until the whole stream has been decoded and
// checked, every actor payload included; any error is a *RestoreError and
// leaves the engine untouched. Nothing is sized from a count in the
// stream before the data behind it has arrived.
package sim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"updown/internal/arch"
	"updown/internal/snap"
)

// Snapshotter is implemented by actors whose private state participates
// in Engine.Checkpoint/Restore. Actors that do not implement it are
// skipped: their state is assumed reconstructible (or empty) at restore
// time. Lanes instantiated lazily and never touched carry no state and
// are skipped automatically.
type Snapshotter interface {
	// Snapshot codes the actor's state through c. Writing, it encodes the
	// live state — equal states must produce equal bytes — and commit is a
	// no-op. Reading, it decodes and checks a payload without touching the
	// actor, and commit installs it.
	Snapshot(c *snap.Codec) (commit func(), err error)
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
	// or vice versa), or an actor payload holds another program's state.
	RestoreShapeMismatch
	// RestoreCorrupt: the stream is truncated or internally inconsistent.
	RestoreCorrupt
	// RestoreActorFailed: an actor payload has no actor to go to (the
	// actor is missing or does not implement Snapshotter).
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

// RestoreError is the typed error Engine.Restore returns; the engine has
// not been mutated.
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

// code codes a message, its engine-internal retry flag included.
func (m *Message) code(c *snap.Codec) {
	snap.W64(c, &m.Deliver)
	snap.W32(c, &m.Src)
	c.U64(&m.Seq)
	snap.W32(c, &m.Dst)
	snap.W8(c, &m.Kind)
	snap.W8(c, &m.NOps)
	c.Bool(&m.retry)
	c.U64(&m.Event)
	c.U64(&m.Cont)
	for i := range m.Ops {
		c.U64(&m.Ops[i])
	}
}

// codeStats codes the aggregate statistics but LanesTouched, which is
// derived from actor state.
func codeStats(c *snap.Codec, s *Stats) {
	f := &s.Faults
	for _, v := range []*int64{&s.FinalTime, &s.Events, &s.DRAMReads, &s.DRAMWrites, &s.DRAMBytes,
		&s.Sends, &s.ShuffleMsgs, &s.ShuffleTuples, &s.BusyCycles,
		&f.Dropped, &f.Dupped, &f.Delayed, &f.DeadLetters, &f.Failovers, &f.Stalled} {
		snap.W64(c, v)
	}
}

// snapState is the engine checkpoint: gathered from the live engine to
// write it, decoded and checked before any engine mutation to restore it.
type snapState struct {
	hostSeq  uint64
	inj      []int64
	stats    Stats
	heapMsgs []Message // heap-resident, floating retries included, in total order
	actors   []snapActor
	payloads []snapPayload
}

// snapActor is one actor's non-zero scheduler state. Its wait queue is
// embedded in FIFO order: the pop order is part of the deterministic
// schedule and is not reconstructible from the (Deliver, Src, Seq) key
// once deliveries have been bumped.
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
	// actor and commit are set once the payload has been checked.
	actor  Actor
	commit func()
}

// code states the checkpoint layout for both directions. Reading, it checks
// the stream against engine e as it goes and fails c with a *RestoreError
// of the first problem's kind.
func (s *snapState) code(c *snap.Codec, e *Engine) {
	bad := func(k RestoreErrorKind, format string, args ...any) { c.Fail(restoreErrf(k, format, args...)) }
	if !c.Magic(snapMagic) {
		bad(RestoreBadMagic, "not an engine checkpoint")
	}
	version := snapVersion
	snap.W32(c, &version)
	if version != snapVersion {
		bad(RestoreBadVersion, "format version %d, this build reads %d", version, snapVersion)
	}
	for i, want := range machineWords(e.M) {
		got := want
		c.U64(&got)
		if got != want {
			bad(RestoreMachineMismatch, "machine word %d differs: checkpoint %d, engine %d", i, got, want)
		}
	}
	n := len(e.actors)
	snap.W64(c, &n)
	if n != len(e.actors) {
		bad(RestoreShapeMismatch, "checkpoint has %d actors, engine has %d (auxiliary actors must be registered before Restore)",
			n, len(e.actors))
	}
	c.U64(&s.hostSeq)
	if c.Reading() {
		s.inj = make([]int64, len(e.injBusy64))
	}
	for i := range s.inj {
		snap.W64(c, &s.inj[i])
	}
	codeStats(c, &s.stats)
	msg := func(where string) func(int, *Message) {
		return func(_ int, m *Message) {
			if m.code(c); c.Err() == nil && !e.validMsg(m) {
				bad(RestoreCorrupt, "%s message to actor %d with %d operands", where, m.Dst, m.NOps)
			}
		}
	}
	snap.List(c, &s.heapMsgs, math.MaxUint64, msg("heap"))
	snap.List(c, &s.actors, math.MaxUint64, func(_ int, a *snapActor) {
		snap.W32(c, &a.id)
		c.Bool(&a.used)
		snap.W64(c, &a.freeAt)
		c.U64(&a.seq)
		snap.W64(c, &a.busy)
		snap.List(c, &a.waitq, math.MaxUint64, msg("parked"))
		if c.Err() == nil && (a.id < 0 || a.id >= len(e.actors)) {
			bad(RestoreCorrupt, "actor record for out-of-range id %d", a.id)
		}
	})
	snap.List(c, &s.payloads, math.MaxUint64, func(_ int, p *snapPayload) {
		snap.W32(c, &p.id)
		c.Bytes(&p.data, 1<<32)
		if c.Err() == nil && (p.id < 0 || p.id >= len(e.actors)) {
			bad(RestoreCorrupt, "payload for out-of-range actor id %d", p.id)
		}
	})
	end := snapEnd
	c.U64(&end)
	if end != snapEnd {
		bad(RestoreCorrupt, "missing end sentinel")
	}
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
	s := &snapState{hostSeq: e.hostSeq, inj: e.injBusy64, stats: e.totals()}
	for _, sh := range e.shards {
		s.heapMsgs = sh.heap.appendQueued(s.heapMsgs)
	}
	sort.Slice(s.heapMsgs, func(i, j int) bool { return s.heapMsgs[i].before(&s.heapMsgs[j]) })
	for i := range e.state {
		st := &e.state[i]
		if !stateNonZero(st) {
			continue
		}
		a := snapActor{id: i, used: st.used, freeAt: st.freeAt, seq: st.seq, busy: st.busy}
		h := &e.shards[e.shardOf(arch.NetworkID(i))].heap
		for _, mi := range st.waitq[st.waitqHead:] {
			a.waitq = append(a.waitq, *h.at(mi))
		}
		s.actors = append(s.actors, a)
	}
	for i, a := range e.actors {
		if sn, ok := a.(Snapshotter); ok {
			var buf bytes.Buffer
			if _, err := sn.Snapshot(snap.NewWriter(&buf)); err != nil {
				return fmt.Errorf("sim: checkpoint of actor %d: %w", i, err)
			}
			s.payloads = append(s.payloads, snapPayload{id: i, data: buf.Bytes()})
		}
	}
	bw := bufio.NewWriter(w)
	c := snap.NewWriter(bw)
	s.code(c, e)
	if err := c.Err(); err != nil {
		return fmt.Errorf("sim: checkpoint write: %w", err)
	}
	return bw.Flush()
}

func stateNonZero(a *actorState) bool {
	return a.used || a.freeAt != 0 || a.seq != 0 || a.busy != 0 ||
		a.waitqLen() > 0 || a.floating != 0
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
	if err == nil {
		commit()
	}
	return err
}

// StageRestore is Restore in two steps: it decodes and checks the whole
// checkpoint, every actor payload included, without modifying the engine,
// and commit installs it. A caller restoring several sections together
// (the machine checkpoint) stages each before committing any.
func (e *Engine) StageRestore(r io.Reader) (commit func(), err error) {
	if e.running {
		panic("sim: Restore called while Run is in progress")
	}
	s, err := e.decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	return func() { e.applySnapshot(s) }, nil
}

// validMsg reports whether a decoded message can be scheduled: a
// registered destination and an operand count the arena holds.
func (e *Engine) validMsg(m *Message) bool {
	return m.Dst >= 0 && int(m.Dst) < len(e.actors) && m.NOps <= MaxOperands
}

// asRestoreError returns err if it is a *RestoreError, or a corrupt-stream
// one describing it.
func asRestoreError(err error, format string, args ...any) *RestoreError {
	var re *RestoreError
	if errors.As(err, &re) {
		return re
	}
	return restoreErrf(RestoreCorrupt, format+": %v", append(args, err)...)
}

// decodeSnapshot reads and checks a checkpoint stream, then stages every
// actor payload against the actor it belongs to.
func (e *Engine) decodeSnapshot(r io.Reader) (*snapState, error) {
	c := snap.NewReader(bufio.NewReader(r))
	s := &snapState{}
	if s.code(c, e); c.Err() != nil {
		return nil, asRestoreError(c.Err(), "truncated stream")
	}
	// The wait-queue invariant must hold or the scheduler would strand
	// parked messages: an actor with parked messages has a floating retry
	// in the heap.
	floating := map[int]bool{}
	for i := range s.heapMsgs {
		if m := &s.heapMsgs[i]; m.retry {
			floating[int(m.Dst)] = true
		}
	}
	for _, a := range s.actors {
		if len(a.waitq) > 0 && !floating[a.id] {
			return nil, restoreErrf(RestoreCorrupt, "actor %d has %d parked messages but no floating retry", a.id, len(a.waitq))
		}
	}
	for i := range s.payloads {
		p := &s.payloads[i]
		a := e.actors[p.id]
		if a == nil && p.id < e.totalLanes && e.factory != nil {
			a = e.factory(arch.NetworkID(p.id)) // installed at commit
		}
		sn, ok := a.(Snapshotter)
		if !ok {
			return nil, restoreErrf(RestoreActorFailed, "actor %d (%T) has a payload but does not implement Snapshotter", p.id, a)
		}
		data := bytes.NewReader(p.data)
		commit, err := sn.Snapshot(snap.NewReader(data))
		if err == nil && data.Len() > 0 {
			err = fmt.Errorf("%d bytes past the end of the payload", data.Len())
		}
		if err != nil {
			return nil, asRestoreError(err, "actor %d", p.id)
		}
		p.actor, p.commit = a, commit
	}
	return s, nil
}

// applySnapshot installs a decoded, checked checkpoint.
func (e *Engine) applySnapshot(s *snapState) {
	e.hostSeq = s.hostSeq
	copy(e.injBusy64, s.inj)
	for i := range e.state {
		e.state[i] = actorState{}
	}
	for si, sh := range e.shards {
		sh.heap = msgHeap{}
		for p := 0; p < 2; p++ {
			for j := range sh.outbox[p] {
				sh.outbox[p][j] = sh.outbox[p][j][:0]
			}
		}
		sh.resetOut()
		sh.parity = 0
		sh.stats = Stats{}
		if si == 0 {
			sh.stats = s.stats
		}
	}
	// Wait queues first: parked messages occupy arena slots outside the
	// heap, exactly as the scheduler left them.
	for _, a := range s.actors {
		st := &e.state[a.id]
		st.used, st.freeAt, st.seq, st.busy = a.used, a.freeAt, a.seq, a.busy
		h := &e.shards[e.shardOf(arch.NetworkID(a.id))].heap
		for i := range a.waitq {
			st.waitqPush(h.alloc(&a.waitq[i]))
		}
	}
	// Heap messages, preserving retry flags (and their bumped delivery
	// times); each retry accounts for one floating entry of its
	// destination.
	for i := range s.heapMsgs {
		m := &s.heapMsgs[i]
		e.shards[e.shardOf(m.Dst)].heap.push(m)
		if m.retry {
			e.state[m.Dst].floating++
		}
	}
	for _, p := range s.payloads {
		e.actors[p.id] = p.actor
		p.commit()
	}
}
