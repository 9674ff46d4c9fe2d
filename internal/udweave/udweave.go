// Package udweave hosts the UDWeave programming model on the simulator:
// software-managed threads whose events are triggered by messages, explicit
// continuation words for flexible event composition, and intrinsics for
// event-word manipulation, messaging and split-phase DRAM access (paper
// Section 2.1).
//
// The paper's UDWeave is a C-like language compiled to UpDown lanes; here
// events are Go functions registered under Labels, and the Ctx passed to a
// handler provides the intrinsics plus cycle accounting, so the simulated
// cost model matches the paper's 10-100 instruction fine-grained tasks.
package udweave

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"updown/internal/arch"
	"updown/internal/gasmem"
	"updown/internal/metrics"
	"updown/internal/sim"
)

// Handler is the body of one event. Returning normally is a yield (the
// thread persists, its state preserved); calling Ctx.YieldTerminate first
// deallocates the thread instead.
type Handler func(c *Ctx)

// Program is a registry of event handlers shared by all lanes of a machine.
type Program struct {
	M   arch.Machine
	GAS *gasmem.GAS
	// totalLanes caches M.TotalLanes(): the send intrinsics test and build
	// NetworkIDs once per event, and arch.Machine's value-receiver methods
	// copy the whole struct per call.
	totalLanes int
	handlers   []Handler
	names      []string
	// slotTypes[i] is the pointer type slot i holds (see NewSlot).
	slotTypes []reflect.Type
	// lTimeout is the reserved label carried by Ctx.ArmTimeout timer
	// messages; the lane intercepts it and dispatches the thread's armed
	// recovery label instead (stale timers are swallowed).
	lTimeout Label

	// scope, when non-nil, records Define/NewSlot calls so a completed
	// job's labels and slots can be recycled (see Scope); freeLabels and
	// freeSlots hold the recycled entries Define/NewSlot reuse first.
	scope      *Scope
	freeLabels []Label
	freeSlots  []int
	// lanes registers every lane this program instantiated, so Retire can
	// clear recycled slots lane-wide. Guarded by laneMu: the engine
	// materializes lanes lazily from its shard workers.
	laneMu sync.Mutex
	lanes  []*Lane
}

// NewProgram creates an empty program for the given machine.
func NewProgram(m arch.Machine, gas *gasmem.GAS) *Program {
	// Label 0 is reserved so that a zero event word is always invalid.
	p := &Program{M: m, GAS: gas, totalLanes: m.TotalLanes(), handlers: []Handler{nil}, names: []string{"<invalid>"}}
	// The timeout label has no handler of its own: Lane.OnMessage remaps
	// it to the receiving thread's armed label.
	p.lTimeout = Label(len(p.handlers))
	p.handlers = append(p.handlers, nil)
	p.names = append(p.names, "udweave.timeout")
	return p
}

// Define registers an event handler and returns its Label. Retired
// labels are reused before the table grows; the 12-bit label space
// therefore bounds the concurrently live handlers, not the total ever
// defined.
func (p *Program) Define(name string, h Handler) Label {
	var l Label
	if n := len(p.freeLabels); n > 0 {
		l = p.freeLabels[n-1]
		p.freeLabels = p.freeLabels[:n-1]
		p.handlers[l] = h
		p.names[l] = name
	} else {
		if len(p.handlers) > maxLabel {
			panic("udweave: label space exhausted")
		}
		p.handlers = append(p.handlers, h)
		p.names = append(p.names, name)
		l = Label(len(p.handlers) - 1)
	}
	if p.scope != nil {
		p.scope.labels = append(p.scope.labels, l)
	}
	return l
}

// Name returns the registered name of a label (diagnostics).
func (p *Program) Name(l Label) string {
	if int(l) < len(p.names) {
		return p.names[l]
	}
	return fmt.Sprintf("<label %d>", l)
}

// isLane and memCtrl are arch.Machine.IsLane and MemCtrlID off the cached
// lane count.
func (p *Program) isLane(id arch.NetworkID) bool   { return id >= 0 && int(id) < p.totalLanes }
func (p *Program) memCtrl(node int) arch.NetworkID { return arch.NetworkID(p.totalLanes + node) }

// NewLane builds the lane actor for a network ID; it is the sim.Engine
// LaneFactory for this program.
func (p *Program) NewLane(id arch.NetworkID) sim.Actor {
	// Trace track: one "process" per node, one "thread" per lane (tid 0 is
	// reserved for the node's counter tracks).
	l := &Lane{p: p, id: id,
		pid: int32(p.M.NodeOf(id)),
		tid: int32(int(id)%p.M.LanesPerNode()) + 1,
	}
	p.laneMu.Lock()
	p.lanes = append(p.lanes, l)
	p.laneMu.Unlock()
	return l
}

// Thread is one software-managed thread context on a lane. Events of a
// thread execute atomically, so State needs no synchronization.
type Thread struct {
	// TID is the thread context ID within its lane.
	TID uint16
	// State is the application-defined thread state ("thread variables"
	// in UDWeave). The first event of a thread finds it nil and
	// initializes it.
	State any

	terminated bool
	// timeoutGen/timeoutLabel implement Ctx.ArmTimeout: a timer message
	// fires the armed label only when its generation still matches, so
	// disarmed, superseded, or recycled-thread timers are swallowed.
	timeoutGen   uint64
	timeoutLabel Label
}

// Lane is the event-driven compute engine: it dispatches inbound event
// messages to handlers, managing thread contexts in its scratchpad.
type Lane struct {
	p        *Program
	id       arch.NetworkID
	pid, tid int32     // trace track (node, lane-in-node + 1)
	threads  []*Thread // indexed by TID; nil entries are dead
	live     int
	freeTIDs []uint16
	pool     []*Thread
	// slots[i] is the lane's *T of slot i (T is in Program.slotTypes), nil
	// until its first Get. Untyped, so a Get inlines to a bounds check, a
	// nil check and a conversion.
	slots []unsafe.Pointer
	// timerGen is the lane-wide monotonic timer generation; each
	// ArmTimeout takes the next value, making elder timers stale.
	timerGen uint64
	// ctx is the context of the event OnMessage is executing, and
	// nested[:depth] the frames of the InvokeLocal dispatches running
	// inside it. A lane executes one event at a time, so the storage is
	// reused from event to event instead of being allocated per dispatch
	// (handlers receive *Ctx through a func value, which would force
	// every Ctx to the heap). Frames are allocated on a lane's first
	// dispatch at each nesting depth and never move.
	ctx    Ctx
	nested []*localFrame
	depth  int
}

// localFrame is the synthetic message and context of one InvokeLocal
// dispatch.
type localFrame struct {
	msg sim.Message
	ctx Ctx
}

// OnMessage implements sim.Actor.
func (l *Lane) OnMessage(env *sim.Env, m *sim.Message) {
	if m.Kind != arch.KindEvent && m.Kind != arch.KindEventU {
		panic(fmt.Sprintf("udweave: lane %d received non-event message kind %d", l.id, m.Kind))
	}
	label := EvwLabel(m.Event)
	if int(label) >= len(l.p.handlers) ||
		(l.p.handlers[label] == nil && label != l.p.lTimeout) {
		panic(fmt.Sprintf("udweave: lane %d received undefined event label %d", l.id, label))
	}
	tid := EvwTID(m.Event)
	tv := env.Trace()
	if tv != nil && !tv.SpansOn() {
		tv = nil
	}
	var th *Thread
	switch {
	case label == l.p.lTimeout:
		// Timer message from Ctx.ArmTimeout. Swallow it silently unless
		// the target thread is still alive and the timer is current (not
		// disarmed, superseded by a newer arm, or aimed at a recycled
		// thread context); otherwise dispatch the armed recovery label on
		// the thread.
		if int(tid) >= len(l.threads) || l.threads[tid] == nil {
			return
		}
		th = l.threads[tid]
		if th.timeoutLabel == 0 || m.NOps == 0 || th.timeoutGen != m.Ops[0] {
			return
		}
		label = th.timeoutLabel
		th.timeoutLabel = 0
	case tid == NewThreadTID:
		th = l.newThread(env, tv, env.Start())
	default:
		if int(tid) >= len(l.threads) || l.threads[tid] == nil {
			if m.Kind == arch.KindEventU {
				// The unreliable class tolerates stale delivery: a
				// duplicated or delayed message may outlive its target
				// thread. Dropping it here is the documented contract;
				// protocols on this class must target fresh threads or
				// dedup at the handler.
				return
			}
			panic(fmt.Sprintf("udweave: lane %d event %q for dead thread %d", l.id, l.p.Name(label), tid))
		}
		th = l.threads[tid]
	}
	l.ctx = Ctx{env: env, lane: l, th: th, msg: m, label: label}
	l.dispatch(&l.ctx, tv, env.Start())
}

// threadSpanID pairs a thread's lifetime begin/end span records: lane and
// TID together are unique among simultaneously live threads.
func (l *Lane) threadSpanID(th *Thread) uint64 {
	return uint64(l.id)<<16 | uint64(th.TID)
}

// dispatch runs the event c describes, begun at begin, and ends it: a
// yield, or the deallocation of a terminated thread, whose context returns
// to the pool with its timer disarmed so a recycled context never fires a
// predecessor's timeout. Under span tracing the event is one duration span
// named by its handler; a lane's events run serially (a local dispatch
// nests inside its enclosing event), so the exporter renders them as B/E
// pairs on the lane's track.
func (l *Lane) dispatch(c *Ctx, tv *metrics.TraceView, begin arch.Cycles) {
	env, th := c.env, c.th
	env.Charge(l.p.M.CostEventDispatch)
	l.p.handlers[c.label](c)
	if th.terminated {
		env.Charge(l.p.M.CostThreadDealloc)
		if tv != nil {
			tv.AsyncEnd(l.pid, l.tid, l.threadSpanID(th), "thread", env.Now())
		}
		l.threads[th.TID] = nil
		l.freeTIDs = append(l.freeTIDs, th.TID)
		l.live--
		th.State, th.terminated, th.timeoutLabel = nil, false, 0
		l.pool = append(l.pool, th)
	} else {
		env.Charge(l.p.M.CostThreadYield)
	}
	if tv != nil {
		tv.Span(l.pid, l.tid, l.p.names[c.label], begin, env.Now())
	}
}

// newThread allocates a thread context, charging its creation; its
// lifetime span (under span tracing) begins at begin.
func (l *Lane) newThread(env *sim.Env, tv *metrics.TraceView, begin arch.Cycles) *Thread {
	var tid uint16
	if n := len(l.freeTIDs); n > 0 {
		tid = l.freeTIDs[n-1]
		l.freeTIDs = l.freeTIDs[:n-1]
	} else {
		if len(l.threads) >= int(NewThreadTID) {
			panic(fmt.Sprintf("udweave: lane %d out of thread contexts", l.id))
		}
		tid = uint16(len(l.threads))
		l.threads = append(l.threads, nil)
	}
	var th *Thread
	if n := len(l.pool); n > 0 {
		th = l.pool[n-1]
		l.pool = l.pool[:n-1]
		th.TID = tid
	} else {
		th = &Thread{TID: tid}
	}
	l.threads[tid] = th
	l.live++
	env.Charge(l.p.M.CostThreadCreate)
	if tv != nil {
		tv.AsyncBegin(l.pid, l.tid, l.threadSpanID(th), "thread", begin)
	}
	return th
}

// LiveThreads returns the number of allocated thread contexts (testing and
// leak detection: a well-terminated program leaves only daemon threads).
func (l *Lane) LiveThreads() int { return l.live }

// Ctx is the execution context of one event.
//
// A Ctx, the message behind Op/Ops/Cont/Src and the slice Ops returns are
// valid only until the handler returns: the lane and the engine reuse
// their storage for the next event. Handlers must copy what they keep
// (operands into thread state, the continuation word by value) and never
// retain the *Ctx itself.
type Ctx struct {
	env   *sim.Env
	lane  *Lane
	th    *Thread
	msg   *sim.Message
	label Label
}

// Program returns the program being executed.
func (c *Ctx) Program() *Program { return c.lane.p }

// NetworkID returns the executing lane (curNetworkID in UDWeave).
func (c *Ctx) NetworkID() arch.NetworkID { return c.lane.id }

// Now returns the current simulated cycle.
func (c *Ctx) Now() arch.Cycles { return c.env.Now() }

// Thread returns the executing thread.
func (c *Ctx) Thread() *Thread { return c.th }

// State returns the thread state; SetState installs it.
func (c *Ctx) State() any     { return c.th.State }
func (c *Ctx) SetState(s any) { c.th.State = s }

// NOps returns the operand count of the triggering message.
func (c *Ctx) NOps() int { return int(c.msg.NOps) }

// Op returns operand i of the triggering message.
func (c *Ctx) Op(i int) uint64 {
	if i >= int(c.msg.NOps) {
		panic(fmt.Sprintf("udweave: event %q read operand %d of %d", c.lane.p.Name(c.label), i, c.msg.NOps))
	}
	return c.msg.Ops[i]
}

// Ops returns all operands of the triggering message.
func (c *Ctx) Ops() []uint64 { return c.msg.Ops[:c.msg.NOps] }

// Cont returns the continuation word of the triggering message (CCONT).
func (c *Ctx) Cont() uint64 { return c.msg.Cont }

// Src returns the NetworkID that sent the triggering message. Dedup
// protocols key their sequence windows on it.
func (c *Ctx) Src() arch.NetworkID { return c.msg.Src }

// TruncateOps shortens the triggering message's visible operand list to
// n: protocol wrappers strip trailing metadata (sequence numbers) before
// handing the event to a wrapped handler via Invoke. It affects only
// this execution's view of the message.
func (c *Ctx) TruncateOps(n int) {
	if n < 0 || n > int(c.msg.NOps) {
		panic(fmt.Sprintf("udweave: TruncateOps(%d) on a %d-operand message", n, c.msg.NOps))
	}
	c.msg.NOps = uint8(n)
}

// Invoke runs another event handler in place: same thread, same message,
// same simulated cycle accounting. Protocol shims (the resilient-emit
// delivery wrapper in KVMSR) use it to hand a validated message to the
// handler the sender addressed.
func (c *Ctx) Invoke(label Label) {
	p := c.lane.p
	if int(label) >= len(p.handlers) || p.handlers[label] == nil {
		panic(fmt.Sprintf("udweave: Invoke of undefined label %d", label))
	}
	saved := c.label
	c.label = label
	p.handlers[label](c)
	c.label = saved
}

// InvokeLocal dispatches a synthetic event on the executing lane: a fresh
// thread runs the handler for label with the given operands, attributed to
// src as if src had sent the message directly (handlers that key dedup
// windows or parent pointers on Ctx.Src see the original sender, not this
// lane). Message-unpacking shims — KVMSR's coalesced shuffle delivering
// each packed tuple — use it to run every tuple through the normal thread
// lifecycle (create/dispatch/yield-or-dealloc charging, termination
// bookkeeping, trace spans) without a network message per tuple. The
// spawned thread may outlive the call: if the handler yields, later
// messages reach it through the usual EvwExisting continuations.
func (c *Ctx) InvokeLocal(src arch.NetworkID, label Label, ops ...uint64) {
	l := c.lane
	p := l.p
	if int(label) >= len(p.handlers) || p.handlers[label] == nil {
		panic(fmt.Sprintf("udweave: InvokeLocal of undefined label %d", label))
	}
	if len(ops) > sim.MaxOperands {
		panic(fmt.Sprintf("udweave: InvokeLocal with %d operands", len(ops)))
	}
	tv := c.env.Trace()
	if tv != nil && !tv.SpansOn() {
		tv = nil
	}
	begin := c.env.Now()
	th := l.newThread(c.env, tv, begin)
	if l.depth == len(l.nested) {
		l.nested = append(l.nested, new(localFrame))
	}
	f := l.nested[l.depth]
	l.depth++
	// ops may alias the enclosing message; f.msg is a different frame's.
	f.msg = sim.Message{Src: src, Dst: l.id, Kind: c.msg.Kind,
		Event: EvwExisting(l.id, th.TID, label), Cont: IGNRCONT}
	f.msg.NOps = uint8(copy(f.msg.Ops[:], ops))
	f.ctx = Ctx{env: c.env, lane: l, th: th, msg: &f.msg, label: label}
	// The span begins at the local dispatch time, not the outer event's
	// start, so it nests inside the enclosing event's span.
	l.dispatch(&f.ctx, tv, begin)
	l.depth--
}

// EventWord returns the current event word (CEVNT): this lane, this thread,
// this label. Combined with EvwUpdateEvent it lets an event direct replies
// back to its own thread.
func (c *Ctx) EventWord() uint64 { return EvwExisting(c.lane.id, c.th.TID, c.label) }

// ContinueTo is shorthand for EvwUpdateEvent(c.EventWord(), label): a
// continuation word that re-enters this thread at another event.
func (c *Ctx) ContinueTo(label Label) uint64 {
	return EvwExisting(c.lane.id, c.th.TID, label)
}

// Cycles charges n instruction cycles of computation.
func (c *Ctx) Cycles(n int) { c.env.Charge(arch.Cycles(n) * c.lane.p.M.CostInstruction) }

// ScratchAccess charges n scratchpad accesses.
func (c *Ctx) ScratchAccess(n int) { c.env.Charge(arch.Cycles(n) * c.lane.p.M.CostScratchAccess) }

// CountShuffle accounts shuffle traffic in the run statistics: msgs
// network messages carrying tuples logical emits (see
// sim.Stats.ShuffleMsgs/ShuffleTuples). Observability only — it charges
// no cycles and never alters simulated behavior.
func (c *Ctx) CountShuffle(msgs, tuples int64) { c.env.AddShuffle(msgs, tuples) }

// YieldTerminate marks the thread for deallocation when the handler
// returns (yield_terminate).
func (c *Ctx) YieldTerminate() { c.th.terminated = true }

// SendEvent sends a message triggering the event word evw, carrying the
// continuation cont and operands — the send_event intrinsic.
func (c *Ctx) SendEvent(evw uint64, cont uint64, ops ...uint64) {
	c.send(arch.KindEvent, evw, cont, ops)
}

// send is SendEvent on message class kind.
func (c *Ctx) send(kind uint8, evw uint64, cont uint64, ops []uint64) {
	if evw == IGNRCONT {
		// Sending to an ignored continuation is a no-op; this lets
		// library code reply unconditionally.
		return
	}
	dst := EvwNetworkID(evw)
	if !c.lane.p.isLane(dst) {
		panic(fmt.Sprintf("udweave: send_event to non-lane networkID %d (event %q)", dst, c.lane.p.Name(EvwLabel(evw))))
	}
	c.env.Send(dst, kind, evw, cont, ops...)
}

// Reply sends operands to a continuation word; with IGNRCONT it does
// nothing.
func (c *Ctx) Reply(cont uint64, ops ...uint64) { c.SendEvent(cont, IGNRCONT, ops...) }

// SendEventU is SendEvent on the unreliable message class
// (arch.KindEventU): under fault injection the message may be dropped,
// duplicated or delayed, and delivery to a thread that has since died is
// silently discarded rather than a panic. Protocols using it must carry
// their own ack/retry/dedup machinery (see internal/kvmsr resilience);
// without a fault plan it behaves exactly like SendEvent.
func (c *Ctx) SendEventU(evw uint64, cont uint64, ops ...uint64) {
	c.send(arch.KindEventU, evw, cont, ops)
}

// ArmTimeout schedules a timeout continuation for the executing thread:
// unless DisarmTimeout (or a newer ArmTimeout, or thread termination)
// intervenes, the thread receives a recovery event at handler label
// after delay cycles — the blocked-thread escape hatch resilient
// protocols need. One timer per thread; re-arming supersedes the
// previous timer. The timer itself travels on the reliable event class.
func (c *Ctx) ArmTimeout(delay arch.Cycles, label Label) {
	p := c.lane.p
	if int(label) >= len(p.handlers) || p.handlers[label] == nil {
		panic(fmt.Sprintf("udweave: ArmTimeout with undefined label %d", label))
	}
	c.lane.timerGen++
	c.th.timeoutGen = c.lane.timerGen
	c.th.timeoutLabel = label
	evw := EvwExisting(c.lane.id, c.th.TID, p.lTimeout)
	c.env.SendAfter(delay, c.lane.id, arch.KindEvent, evw, IGNRCONT, c.th.timeoutGen)
}

// DisarmTimeout cancels the thread's pending timeout, if any. The timer
// message still arrives but is swallowed.
func (c *Ctx) DisarmTimeout() { c.th.timeoutLabel = 0 }

// SendEventAfter is SendEvent with an additional delay before the message
// enters the network. It models software timers (polling loops, retry
// backoff in termination detection).
func (c *Ctx) SendEventAfter(delay arch.Cycles, evw uint64, cont uint64, ops ...uint64) {
	if evw == IGNRCONT {
		return
	}
	dst := EvwNetworkID(evw)
	if !c.lane.p.isLane(dst) {
		panic(fmt.Sprintf("udweave: send_event to non-lane networkID %d", dst))
	}
	c.env.SendAfter(delay, dst, arch.KindEvent, evw, cont, ops...)
}

// DRAMRead issues a split-phase read of nWords (max 8) 64-bit words from
// global memory at va; the words arrive as the operands of retEvw —
// the send_dram_read intrinsic. Under replicated placement the read is
// quorum-of-one: it targets the home node's controller unless the home
// fail-stops during the run, in which case it targets the first surviving
// replica (a fail-stopped copy cannot diverge, so one live copy is
// authoritative).
func (c *Ctx) DRAMRead(va gasmem.VA, nWords int, retEvw uint64) {
	if nWords <= 0 || nWords > sim.MaxOperands {
		panic(fmt.Sprintf("udweave: DRAMRead of %d words", nWords))
	}
	c.env.Charge(c.lane.p.M.CostSendDRAM)
	g := c.lane.p.GAS
	var node int
	if g.Replicated() {
		node = g.ReadTarget(va)
	} else {
		node = g.NodeOf(va)
	}
	c.env.Send(c.lane.p.memCtrl(node), arch.KindDRAMRead, 0, retEvw, va, uint64(nWords))
}

// dramFanout sends one message per replica of va: the coordinator (first
// replica alive at issue time) carries the continuation and owns the
// response; the remaining legs are fire-and-forget copies. Legs whose
// replica node already fail-stopped become hinted-handoff records (kind
// bumped to its hint variant, first operand packing the intended node).
// Each leg charges the DRAM send cost: replication's latency tax on the
// issuing lane.
func (c *Ctx) dramFanout(va gasmem.VA, kind uint8, hintKind uint8, cont uint64, vals ...uint64) {
	p := c.lane.p
	var tg [gasmem.MaxRep]gasmem.WriteTarget
	n := p.GAS.WriteTargets(va, int64(c.env.Now()), &tg)
	var buf [sim.MaxOperands]uint64
	ops := buf[:1+copy(buf[1:], vals)]
	for i := 0; i < n; i++ {
		c.env.Charge(p.M.CostSendDRAM)
		k, legCont := kind, IGNRCONT
		if tg[i].Hint {
			k = hintKind
		}
		if i == 0 {
			legCont = cont
		}
		ops[0] = tg[i].Op0
		c.env.Send(p.memCtrl(tg[i].Node), k, 0, legCont, ops...)
	}
}

// DRAMWrite issues a split-phase write of vals (max 7 words) to va; ackEvw
// (or IGNRCONT) receives the acknowledgment. Replicated regions fan the
// write out to every copy; multi-word writes must then stay within one
// distribution block, since each leg lands on a single replica stripe.
func (c *Ctx) DRAMWrite(va gasmem.VA, ackEvw uint64, vals ...uint64) {
	if len(vals) == 0 || len(vals) > sim.MaxOperands-1 {
		panic(fmt.Sprintf("udweave: DRAMWrite of %d words", len(vals)))
	}
	g := c.lane.p.GAS
	if g.Replicated() {
		if r := g.RegionOf(va); r != nil && r.Rep > 1 {
			last := va + uint64(len(vals)-1)*gasmem.WordBytes
			if (va-r.Base)/r.BS != (last-r.Base)/r.BS {
				panic(fmt.Sprintf("udweave: replicated DRAMWrite of %d words at VA 0x%x crosses a %d-byte block boundary", len(vals), va, r.BS))
			}
		}
		c.dramFanout(va, arch.KindDRAMWrite, arch.KindDRAMWriteHint, ackEvw, vals...)
		return
	}
	c.env.Charge(c.lane.p.M.CostSendDRAM)
	var buf [sim.MaxOperands]uint64
	buf[0] = va
	ops := buf[:1+copy(buf[1:], vals)]
	c.env.Send(c.lane.p.memCtrl(g.NodeOf(va)), arch.KindDRAMWrite, 0, ackEvw, ops...)
}

// DRAMFetchAdd atomically adds delta to the word at va; retEvw receives the
// prior value. This models a memory-side atomic, which point queries and
// match count and claim words with; PageRank sums in the paper's software
// fetch-and-add (collections.CombiningCache) instead. Replicated regions
// apply the add on every copy; the coordinator's prior value answers
// retEvw.
func (c *Ctx) DRAMFetchAdd(va gasmem.VA, delta uint64, retEvw uint64) {
	g := c.lane.p.GAS
	if g.Replicated() {
		c.dramFanout(va, arch.KindDRAMFetchAdd, arch.KindDRAMFetchAddHint, retEvw, delta)
		return
	}
	c.env.Charge(c.lane.p.M.CostSendDRAM)
	c.env.Send(c.lane.p.memCtrl(g.NodeOf(va)), arch.KindDRAMFetchAdd, 0, retEvw, va, delta)
}

// ---- tracing ----------------------------------------------------------
//
// The span intrinsics below record named spans on the executing lane's
// trace track (see metrics.TraceRecorder). They are observability only:
// they charge no cycles and never alter simulated behavior. All are no-ops
// unless the engine runs with span tracing enabled.

// Tracing reports whether span recording is active; use it to skip span
// name construction on hot paths.
func (c *Ctx) Tracing() bool {
	tv := c.env.Trace()
	return tv != nil && tv.SpansOn()
}

// Span records a completed duration span [begin, Now] on this lane's
// track. Spans on one lane must not partially overlap (the exporter
// renders them as nested B/E pairs); for overlapping work use
// TaskBegin/TaskEnd.
func (c *Ctx) Span(name string, begin arch.Cycles) {
	if tv := c.env.Trace(); tv != nil {
		tv.Span(c.lane.pid, c.lane.tid, name, begin, c.env.Now())
	}
}

// Mark records an instant event at Now on this lane's track.
func (c *Ctx) Mark(name string) {
	if tv := c.env.Trace(); tv != nil {
		tv.Instant(c.lane.pid, c.lane.tid, name, c.env.Now())
	}
}

// TaskBegin opens an async span at Now; TaskEnd with the same name and id
// closes it. Async spans may overlap event executions and each other.
func (c *Ctx) TaskBegin(name string, id uint64) {
	if tv := c.env.Trace(); tv != nil {
		tv.AsyncBegin(c.lane.pid, c.lane.tid, id, name, c.env.Now())
	}
}

// TaskEnd closes an async span opened by TaskBegin.
func (c *Ctx) TaskEnd(name string, id uint64) {
	if tv := c.env.Trace(); tv != nil {
		tv.AsyncEnd(c.lane.pid, c.lane.tid, id, name, c.env.Now())
	}
}

// Phase opens an application phase on the program-wide phase track,
// closing the previously open phase (applications annotate "iteration k
// map", "round k" and so on from their driver events). A phase left open
// at the end of the run is closed at the run's final time.
func (c *Ctx) Phase(name string) {
	if tv := c.env.Trace(); tv != nil {
		tv.Phase(name, c.env.Now())
	}
}

// PhaseEnd closes the open application phase without opening another.
func (c *Ctx) PhaseEnd() {
	if tv := c.env.Trace(); tv != nil {
		tv.PhaseEnd(c.env.Now())
	}
}

// FloatBits and BitsFloat convert between float64 values and the uint64
// operand representation.
func FloatBits(f float64) uint64 { return math.Float64bits(f) }
func BitsFloat(b uint64) float64 { return math.Float64frombits(b) }
