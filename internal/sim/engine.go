// Package sim is a deterministic discrete-event simulator for the UpDown
// machine described by package arch. It plays the role of the paper's
// Fastsim: instruction-level cost accounting on the lanes combined with
// streamlined latency/bandwidth models for DRAM and the system network.
//
// Actors (lanes, per-node memory controllers, auxiliary stream sources)
// exchange Messages. Each actor consumes its inbound messages in the
// deterministic (Deliver, Src, Seq) order. Actors are partitioned by node
// across shards, and because every cross-node message experiences at least
// arch.Machine.MinCrossNodeLatency cycles of network latency, each shard
// can run ahead of its peers by that much without violating causality.
// window.go holds that protocol; it is executed inline on the calling
// goroutine or by a persistent worker pool (pool.go), with bit-identical
// results at every shard count.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/metrics"
	"updown/internal/telemetry"
)

// Actor is a simulated hardware unit addressed by a NetworkID.
type Actor interface {
	// OnMessage processes one inbound message. Execution is atomic in
	// simulated time: it begins at env.Start() and occupies the actor
	// for the cycles accumulated through env.Charge and the send
	// intrinsics. env and m belong to the executing shard and are reused
	// for its next event: an actor must not retain either pointer (or a
	// slice of m.Ops) past the call.
	OnMessage(env *Env, m *Message)
}

// ErrTimeout is returned by Run when simulated time exceeds Options.MaxTime,
// which almost always indicates a livelocked program (for example a
// termination poll that is never satisfied).
var ErrTimeout = errors.New("sim: simulated time exceeded MaxTime")

// TimeoutError is the concrete error Run returns when simulated time
// exceeds Options.MaxTime. It wraps ErrTimeout (so errors.Is(err,
// ErrTimeout) keeps working) and records where the run stalled, which
// turns a bare "timed out" into a debuggable report: when the next
// pending message would have been delivered and how many messages were
// still queued at expiry.
type TimeoutError struct {
	// MaxTime is the bound that was exceeded.
	MaxTime arch.Cycles
	// NextEvent is the earliest pending delivery time past the bound
	// (zero if the queues were empty, which indicates a driver bug).
	NextEvent arch.Cycles
	// Pending is the number of messages still queued at expiry,
	// including messages parked behind busy actors.
	Pending int
}

func (t *TimeoutError) Error() string {
	return fmt.Sprintf("sim: simulated time exceeded MaxTime=%d (next event at %d, %d pending)",
		t.MaxTime, t.NextEvent, t.Pending)
}

// Unwrap makes errors.Is(err, ErrTimeout) succeed.
func (t *TimeoutError) Unwrap() error { return ErrTimeout }

// Options configures an Engine.
type Options struct {
	// Shards is the number of node-contiguous partitions the actors are
	// split into, capped at the node count; zero selects GOMAXPROCS. With
	// more than one shard on more than one CPU each shard gets a worker
	// goroutine; otherwise the calling goroutine steps every shard itself.
	// Results do not depend on it.
	Shards int
	// LaneFactory builds the actor for a lane on first use. Lanes are
	// instantiated lazily because large machines (2M lanes) frequently
	// leave most lanes untouched by small problems.
	LaneFactory func(id arch.NetworkID) Actor
	// MaxTime bounds simulated time; zero means 2^62 cycles.
	MaxTime arch.Cycles
	// Metrics, when non-nil, receives per-node time series and per-kind
	// breakdowns (see internal/metrics). It must be built for the same
	// node count as the machine. Nil disables all recording; the engine
	// hooks then cost one nil-check per event/send/DRAM service.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives causal records: one edge per message
	// (parent event, latency decomposition) and one record per executed
	// event, plus named spans from the runtime (see
	// metrics.TraceRecorder). Nil disables tracing at the same
	// one-nil-check cost as Metrics.
	Trace *metrics.TraceRecorder
	// Fault, when non-nil, is a deterministic fault-injection plan
	// compiled at engine construction (see internal/fault): messages on
	// eligible kinds may be dropped, duplicated or delayed, lanes
	// stalled, node bandwidth degraded, and nodes fail-stopped. Nil
	// disables injection at one nil-check per send/delivery.
	Fault *fault.Plan
	// DRAMFailover, when non-nil, is consulted before a DRAM-class
	// message to a fail-stopped node is dead-lettered. It receives the
	// message kind, first operand, the dead node and the delivery cycle;
	// returning ok=true reroutes the message — with the returned kind,
	// first operand and destination node's memory controller — one
	// cross-node hop later, preserving the continuation. The replicated
	// gasmem placement installs it to steer reads to a surviving replica
	// and convert writes into hinted-handoff records; unreplicated
	// regions return ok=false and keep the dead-letter behaviour.
	DRAMFailover func(kind uint8, op0 uint64, deadNode int, at arch.Cycles) (newKind uint8, newOp0 uint64, node int, ok bool)
	// Telemetry, when non-nil, receives live in-run snapshots at window
	// barriers (see internal/telemetry): an immutable aggregate of
	// progress, throughput and per-node state exposed to concurrent
	// readers via pointer swap. It also lets observers request partial
	// artifact dumps or an orderly stop (Run then returns
	// ErrInterrupted). Nil disables the plane at one nil-check per
	// window — telemetry hooks never sit on the per-event path.
	Telemetry *telemetry.Publisher
}

// Stats aggregates measurements across a Run: the run's counter record,
// declared once in internal/metrics.
type Stats = metrics.Totals

// totals sums the shards' statistics; FinalTime is their maximum. The
// lanes that executed an event are counted from actor state.
func (e *Engine) totals() Stats {
	var t Stats
	for _, s := range e.shards {
		t.Add(s.stats)
	}
	for i := range e.state[:e.totalLanes] {
		if e.state[i].used {
			t.LanesTouched++
		}
	}
	return t
}

type actorState struct {
	freeAt arch.Cycles
	seq    uint64
	busy   int64
	used   bool
	// waitq holds messages that arrived while the actor was busy, in
	// deterministic pop order. Keeping them out of the shard heap until
	// the actor frees up bounds heap traffic; naive re-insertion at
	// freeAt is quadratic when many messages target one actor. Entries
	// are arena indices into the owning shard's heap, so parking moves
	// 4 bytes instead of the 120-byte Message.
	//
	// Invariant: whenever waitq is non-empty, at least one message for
	// this actor "floats" in the heap as a retry; every execution on the
	// actor releases one parked message as a new floating retry, so the
	// queue always drains.
	waitq     []int32
	waitqHead int
	floating  int
}

func (st *actorState) waitqLen() int { return len(st.waitq) - st.waitqHead }

func (st *actorState) waitqPush(i int32) { st.waitq = append(st.waitq, i) }

func (st *actorState) waitqPop() int32 {
	i := st.waitq[st.waitqHead]
	st.waitqHead++
	if st.waitqHead == len(st.waitq) {
		st.waitq = st.waitq[:0]
		st.waitqHead = 0
	} else if st.waitqHead > 1024 && st.waitqHead*2 > len(st.waitq) {
		n := copy(st.waitq, st.waitq[st.waitqHead:])
		st.waitq = st.waitq[:n]
		st.waitqHead = 0
	}
	return i
}

// Engine simulates one machine.
type Engine struct {
	M arch.Machine

	actors []Actor
	state  []actorState
	// injBusy64 is per-node network injection port occupancy in 1/64
	// cycle units (64-byte messages at 2000 B/cycle occupy a fraction of
	// a cycle each, so sub-cycle resolution is required).
	injBusy64 []int64

	shards    []*shard
	nshards   int
	lookahead arch.Cycles
	maxTime   arch.Cycles
	factory   func(id arch.NetworkID) Actor
	// win is the window protocol's state and host the tests' executor pin
	// (see window.go).
	win  window
	host hostMode
	// nodeShard maps a node to the shard that owns it, precomputed so
	// the per-send shard lookup is a table read instead of a
	// multiply/divide.
	nodeShard []int32
	// nodeOfID maps every actor to its node. The send path needs the
	// source and destination nodes for injection accounting, latency
	// class, and shard routing; the table turns three NodeOf
	// multiply/divides per send into one load each.
	nodeOfID []int32
	// totalLanes, lanesPerAccel, lanesPerNode and injXfer64 cache derived
	// machine constants off the send hot path.
	totalLanes    int
	lanesPerAccel int
	lanesPerNode  int
	injXfer64     int64

	// fault is the compiled fault-injection plan, nil when disabled.
	// faultFS/faultStall cache whether the plan contains fail-stops or
	// lane stalls, so the delivery path skips the lookups otherwise.
	fault      *fault.Injector
	faultFS    bool
	faultStall bool
	// failover is Options.DRAMFailover; nil when replication is off.
	failover func(kind uint8, op0 uint64, deadNode int, at arch.Cycles) (uint8, uint64, int, bool)

	// rec is the installed metrics recorder, nil when disabled.
	rec *metrics.Recorder
	// tr is the installed trace recorder, nil when disabled.
	tr *metrics.TraceRecorder
	// tel is the installed telemetry publisher, nil when disabled.
	tel *telemetry.Publisher
	// interrupted/interruptedAt latch a telemetry stop request; they are
	// only written by the window reduction (see telemetry.go).
	interrupted   bool
	interruptedAt arch.Cycles

	hostID  arch.NetworkID
	hostSeq uint64
	// running is true while Run is executing; Post and Run check it so
	// host-driver misuse (posting into a live simulation, re-entrant
	// runs) fails loudly instead of racing with the worker pool.
	running bool
}

type shard struct {
	e    *Engine
	idx  int
	heap msgHeap
	// outbox buffers cross-shard messages, double-buffered by window
	// parity ([parity][destination shard]); see pool.go for the
	// synchronization argument. Slices keep their capacity across
	// windows.
	outbox [2][][]Message
	// env and cur are the execution environment and the message of the
	// event being executed. They live here, not on processWindow's stack,
	// because both are handed to Actor.OnMessage through an interface and
	// would otherwise be heap-allocated once per event.
	env Env
	cur Message
	// parity selects the outbox side written during the current window.
	parity int
	// outMin is the earliest Deliver among messages this shard wrote to
	// its outboxes in its current window, which consumers collect in the
	// next; outTo breaks the same minimum down by destination shard for
	// the window reduction. resetOut clears both at the start of a window.
	outMin arch.Cycles
	outTo  []arch.Cycles
	stats  Stats
	// rec is this shard's metrics view, nil when recording is disabled.
	// Each shard writes only the nodes it owns, so views need no locks.
	rec *metrics.ShardView
	// trace is this shard's causal-trace view, nil when tracing is
	// disabled. Like rec, each shard records only events of actors it
	// owns, so views need no locks.
	trace *metrics.TraceView
}

// NewEngine builds an engine for machine m.
func NewEngine(m arch.Machine, opts Options) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > m.Nodes {
		n = m.Nodes
	}
	if n < 1 {
		n = 1
	}
	maxTime := opts.MaxTime
	if maxTime <= 0 {
		maxTime = 1 << 62
	}
	if opts.Metrics != nil && opts.Metrics.NumNodes() != m.Nodes {
		return nil, fmt.Errorf("sim: metrics recorder built for %d nodes, machine has %d",
			opts.Metrics.NumNodes(), m.Nodes)
	}
	e := &Engine{
		M:         m,
		actors:    make([]Actor, m.TotalActors()),
		state:     make([]actorState, m.TotalActors()),
		injBusy64: make([]int64, m.Nodes),
		nshards:   n,
		lookahead: m.MinCrossNodeLatency(),
		maxTime:   maxTime,
		factory:   opts.LaneFactory,
		nodeShard: make([]int32, m.Nodes),
		rec:       opts.Metrics,
		tr:        opts.Trace,
		tel:       opts.Telemetry,
		failover:  opts.DRAMFailover,
	}
	for node := 0; node < m.Nodes; node++ {
		e.nodeShard[node] = int32(node * n / m.Nodes)
	}
	e.nodeOfID = make([]int32, m.TotalActors())
	for i := range e.nodeOfID {
		e.nodeOfID[i] = int32(m.NodeOf(arch.NetworkID(i)))
	}
	e.totalLanes = m.TotalLanes()
	e.lanesPerAccel = m.LanesPerAccel
	e.lanesPerNode = m.LanesPerNode()
	e.injXfer64 = int64(64*m.MsgBytes) / int64(m.InjectBytesPerCycle)
	if e.injXfer64 < 1 {
		e.injXfer64 = 1
	}
	inj, err := fault.Compile(opts.Fault, m)
	if err != nil {
		return nil, err
	}
	e.fault = inj
	if inj != nil {
		e.faultFS = inj.HasFailStops()
		e.faultStall = inj.HasStalls()
	}
	e.shards = make([]*shard, n)
	for i := range e.shards {
		s := &shard{e: e, idx: i, outMin: math.MaxInt64}
		s.env = Env{e: e, shard: s}
		if opts.Metrics != nil {
			s.rec = opts.Metrics.Shard(i)
		}
		if opts.Trace != nil {
			s.trace = opts.Trace.Shard(i)
		}
		for p := 0; p < 2; p++ {
			s.outbox[p] = make([][]Message, n)
		}
		s.outTo = make([]arch.Cycles, n)
		s.resetOut()
		e.shards[i] = s
	}
	e.win = newWindow(e)
	// The host "TOP core" is an auxiliary actor used as the source of
	// initial messages; it never receives any.
	e.hostID = arch.NetworkID(len(e.actors))
	e.actors = append(e.actors, nil)
	e.state = append(e.state, actorState{})
	e.nodeOfID = append(e.nodeOfID, 0) // host lives on node 0
	return e, nil
}

// SetActor installs the actor for a NetworkID (memory controllers, or
// eagerly-created lanes).
func (e *Engine) SetActor(id arch.NetworkID, a Actor) {
	e.actors[id] = a
}

// AddActor registers an auxiliary actor (stream source, host-side sink) and
// returns its NetworkID. Auxiliary actors live on node 0.
func (e *Engine) AddActor(a Actor) arch.NetworkID {
	id := arch.NetworkID(len(e.actors))
	e.actors = append(e.actors, a)
	e.state = append(e.state, actorState{})
	e.nodeOfID = append(e.nodeOfID, 0)
	return id
}

// Actor returns the installed actor for id, instantiating lanes on demand.
func (e *Engine) Actor(id arch.NetworkID) Actor {
	a := e.actors[id]
	if a == nil && int(id) < e.totalLanes && e.factory != nil {
		a = e.factory(id)
		e.actors[id] = a
	}
	return a
}

// PeekActor returns the installed actor for id without instantiating
// lanes on demand (nil for lanes the program never touched). Host-side
// result collection uses it to read per-lane state after a run.
func (e *Engine) PeekActor(id arch.NetworkID) Actor { return e.actors[id] }

// shardOf maps an actor to the shard that owns it. Actors are partitioned
// by node in contiguous ranges so that same-node interactions stay local.
func (e *Engine) shardOf(id arch.NetworkID) int {
	return int(e.nodeShard[e.nodeOfID[id]])
}

// Post enqueues a message from the host before (or between) runs. Delivery
// is at time t; use 0 for program start.
//
// Host-driver contract: Post must never be called while Run is in
// progress — the worker pool owns the shard heaps for the whole Run, and
// a concurrent push would race with them. Posting between runs is the
// supported way to drive multi-phase programs.
func (e *Engine) Post(t arch.Cycles, dst arch.NetworkID, kind uint8, event, cont uint64, ops ...uint64) {
	if e.running {
		panic("sim: Post called while Run is in progress; post before Run or between runs")
	}
	if len(ops) > MaxOperands {
		panic(fmt.Sprintf("sim: Post with %d operands (max %d)", len(ops), MaxOperands))
	}
	m := Message{Deliver: t, Src: e.hostID, Seq: e.hostSeq, Dst: dst, Kind: kind, Event: event, Cont: cont, NOps: uint8(len(ops))}
	e.hostSeq++
	copy(m.Ops[:], ops)
	if e.tr != nil {
		// Root edge of a causal chain: no parent event, no transit.
		e.tr.PostEdge(metrics.EdgeRec{
			Src: m.Src, Seq: m.Seq, ParentSrc: -1, Dst: dst,
			SrcNode: e.nodeOfID[m.Src], DstNode: e.nodeOfID[dst],
			Kind: kind, SendAt: t, Deliver: t,
		})
	}
	e.shards[e.shardOf(dst)].heap.push(&m)
}

// Run simulates until no messages remain, returning aggregate statistics.
// It may be called repeatedly: later calls continue from the accumulated
// actor clocks, so a host driver can post work in phases.
func (e *Engine) Run() (Stats, error) { return e.run(e.maxTime) }

// RunUntil simulates until quiescence or until the next pending message
// lies beyond cycle t, whichever comes first. Pausing at t is not an
// error: the engine stops at a window boundary with every in-flight
// message back in the shard heaps, which is exactly the state Checkpoint
// serializes — so RunUntil + Checkpoint + (later) Restore + Run is
// bit-equal to one uninterrupted Run. To telemetry a pause is one more
// beat of a run still in progress. A timeout is still reported when t
// meets or exceeds the configured MaxTime bound.
func (e *Engine) RunUntil(t arch.Cycles) (Stats, error) {
	if t >= e.maxTime {
		return e.Run()
	}
	stats, err := e.run(t)
	if errors.Is(err, ErrTimeout) {
		err = nil
	}
	return stats, err
}

// run executes the window protocol up to and including cycle limit.
func (e *Engine) run(limit arch.Cycles) (Stats, error) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.interrupted = false
	if e.tel != nil {
		e.tel.BeginRun()
	}
	e.win.limit, e.win.timedOut = limit, false
	if e.inline() {
		e.runInline()
	} else {
		e.runPool()
	}
	timedOut := e.win.timedOut
	e.running = false
	total := e.totals()
	if e.rec != nil {
		e.rec.ObserveTotals(total)
	}
	if e.tr != nil {
		e.tr.ObserveFinalTime(total.FinalTime)
	}
	if e.tel != nil {
		if !timedOut || limit == e.maxTime {
			// Final snapshot (Done=true) of a run that ended quiescent, on
			// MaxTime or interrupted, published unconditionally: a dump
			// requested after the last reduction is honored here, so a
			// signal racing the end of the run still yields artifacts. A
			// RunUntil pause is not an end; its reduction already beat.
			e.telemetryPublish(total.FinalTime, true)
		}
		e.tel.FinishRun()
	}
	if timedOut {
		terr := &TimeoutError{MaxTime: limit, NextEvent: math.MaxInt64}
		for _, s := range e.shards {
			terr.Pending += s.heap.live()
			terr.NextEvent = min(terr.NextEvent, s.heap.frontier())
		}
		if terr.NextEvent == math.MaxInt64 {
			terr.NextEvent = 0
		}
		return total, terr
	}
	if e.interrupted {
		return total, &InterruptedError{At: e.interruptedAt, Pending: e.Pending()}
	}
	return total, nil
}

// Pending returns the number of messages queued in the engine, including
// messages parked behind busy actors: the work a further Run would
// process. Valid between runs.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.heap.live()
	}
	return n
}

// processWindow executes all messages with effective start time below the
// horizon, in deterministic order, and ends right after the first event
// that stages a cross-shard message. Horizons are lower bounds on what
// peers could still send given their state at the reduction, so they
// remain valid only while this shard's outbound frontier stays closed. A
// cross-shard send opens it — the recipient may respond (or forward) as
// early as the send's event time plus a round trip, which the horizon
// might already have passed (the boomerang: s executes at t, the message
// hops s→c→s and is back at t + 2·lookahead). Stopping at the send keeps
// the processed frontier at or below the event time, and the next
// reduction folds the staged message in. A lone shard never stages.
func (s *shard) processWindow(horizon arch.Cycles) {
	e := s.e
	env := &s.env
	h := &s.heap
	for h.len() > 0 && h.topDeliver() < horizon {
		if s.outMin != math.MaxInt64 {
			break
		}
		mi := h.popIdx()
		pm := h.at(mi)
		st := &e.state[pm.Dst]
		if pm.retry {
			st.floating--
			pm.retry = false
		}
		if e.fault != nil {
			if e.faultFS && e.fault.NodeDead(e.nodeOfID[pm.Dst], pm.Deliver) {
				if e.failover != nil && dramKind(pm.Kind) {
					if nk, nop, node, ok := e.failover(pm.Kind, pm.Ops[0], int(e.nodeOfID[pm.Dst]), pm.Deliver); ok {
						// Replicated region: instead of a dead letter, the
						// message bounces one cross-node hop to a surviving
						// replica (reads) or a hinted-handoff holder
						// (writes), continuation preserved. The new message
						// is sourced from the dead controller — only this
						// shard processes its deliveries, so drawing its
						// sequence number is deterministic and race-free.
						m := *pm
						h.release(mi)
						s.stats.Faults.Failovers++
						s.faultInstant("fault.failover", m.Dst, m.Deliver)
						nm := m
						nm.Kind = nk
						nm.Ops[0] = nop
						nm.Src = m.Dst
						nm.Seq = st.seq
						st.seq++
						nm.Dst = arch.NetworkID(e.totalLanes + node)
						nm.Deliver = m.Deliver + e.M.LatCrossNode
						s.releaseParked(st)
						if s.trace != nil {
							// Root edge: the original edge's delivery died
							// with the node; the bounce starts a new chain.
							s.trace.Edge(metrics.EdgeRec{
								Src: nm.Src, Seq: nm.Seq, ParentSrc: -1,
								Dst: nm.Dst, SrcNode: e.nodeOfID[m.Dst], DstNode: e.nodeOfID[nm.Dst],
								Kind: nk, SendAt: m.Deliver, Net: e.M.LatCrossNode, Deliver: nm.Deliver,
							})
						}
						s.route(&nm, int(e.nodeShard[e.nodeOfID[nm.Dst]]))
						continue
					}
				}
				// Fail-stopped node: the message is dead-lettered, never
				// executed. If it was the actor's floating retry and
				// other messages are parked behind it, release the next
				// one so the queue drains (by cascading dead-letters).
				s.stats.Faults.DeadLetters++
				s.faultInstant("fault.dead_letter", pm.Dst, pm.Deliver)
				h.release(mi)
				s.releaseParked(st)
				continue
			}
			if e.faultStall {
				// A stall freezes the lane: messages that would start
				// executing inside the window wait until it ends. The
				// ordinary busy/park machinery below does the waiting.
				if end := e.fault.StallEnd(pm.Dst, pm.Deliver); end > st.freeAt {
					st.freeAt = end
					s.stats.Faults.Stalled++
					s.faultInstant("fault.stall", pm.Dst, pm.Deliver)
				}
			}
		}
		if st.freeAt > pm.Deliver {
			if st.floating > 0 {
				// A retry for this actor is already in flight;
				// its execution will release us later. Heap
				// pops are in key order, so the queue stays
				// deterministic. Park the arena index; the
				// message itself does not move.
				st.waitqPush(mi)
			} else {
				// Become the floating retry.
				pm.Deliver = st.freeAt
				pm.retry = true
				st.floating++
				h.pushIdx(mi)
			}
			continue
		}
		for {
			// Copy out before executing: the freed slot is the first one
			// the sends during OnMessage reuse.
			m := &s.cur
			*m = *pm
			h.release(mi)
			a := e.Actor(m.Dst)
			if a == nil {
				panic(fmt.Sprintf("sim: message %d->%d kind %d for unregistered actor", m.Src, m.Dst, m.Kind))
			}
			env.self = m.Dst
			env.start = m.Deliver
			env.charged = 0
			if s.trace != nil {
				// The executing message is the parent of every send made
				// during OnMessage.
				env.psrc, env.pseq = m.Src, m.Seq
			}
			a.OnMessage(env, m)
			st.freeAt = m.Deliver + env.charged
			st.busy += int64(env.charged)
			st.used = true
			s.stats.Events++
			s.stats.BusyCycles += int64(env.charged)
			if st.freeAt > s.stats.FinalTime {
				s.stats.FinalTime = st.freeAt
			}
			switch m.Kind {
			case arch.KindDRAMRead:
				s.stats.DRAMReads++
			case arch.KindDRAMWrite, arch.KindDRAMFetchAdd, arch.KindDRAMWriteHint, arch.KindDRAMFetchAddHint:
				// Fetch-adds are read-modify-writes; they count as writes.
				// Each executed message is one physical access: a k-way
				// replicated write appears as k messages, one per replica's
				// controller, so per-node DRAM accounting counts each
				// physical copy exactly once. Hinted legs (queued at the
				// handoff controller) count the same way.
				s.stats.DRAMWrites++
			}
			if s.rec != nil {
				lane := m.Dst
				if int(lane) >= e.totalLanes {
					lane = arch.InvalidNetworkID
				}
				s.rec.Event(e.nodeOfID[m.Dst], lane, m.Kind, m.Deliver, env.charged, st.waitqLen())
				if e.nodeOfID[m.Src] != e.nodeOfID[m.Dst] {
					s.rec.Remote(m.Kind)
				}
			}
			if s.trace != nil {
				// m.Deliver is the actual start: the retry mechanism above
				// bumped it to the actor's free time if it had to wait.
				s.trace.Exec(metrics.ExecRec{Src: m.Src, Seq: m.Seq, Kind: m.Kind,
					Start: m.Deliver, Charged: env.charged})
			}
			if st.waitqLen() == 0 {
				break
			}
			ni := st.waitq[st.waitqHead]
			nm := h.at(ni)
			d := nm.Deliver
			if d < st.freeAt {
				d = st.freeAt
			}
			// Batched dispatch: the released message would re-enter the
			// heap as the floating retry and come straight back out if no
			// queued entry precedes it. When its effective start lies
			// inside the window and its bumped key (d, Src, Seq) beats the
			// heap top, execute it back-to-back instead — same total
			// order, no sift traffic. Fault plans take the classic path so
			// dead-letter and stall handling replay identically, and a
			// staged cross-shard send ends the batch like it ends the
			// window.
			if e.fault == nil && d < horizon && s.outMin == math.MaxInt64 &&
				h.beats(d, nm.Src, nm.Seq) {
				st.waitqPop()
				nm.Deliver = d
				mi = ni
				pm = nm
				continue
			}
			// Classic release: the next parked message becomes the actor's
			// floating retry at d, its bumped key computed above. This is
			// releaseParked, spelled out because that does not inline.
			st.waitqPop()
			nm.Deliver = d
			nm.retry = true
			st.floating++
			h.pushIdx(ni)
			break
		}
	}
}

// releaseParked keeps an actor's wait queue draining after a message of
// its was consumed without executing (dead letter, failover bounce): if
// that was the floating retry, the next parked message becomes it, no
// earlier than the actor's free time.
func (s *shard) releaseParked(st *actorState) {
	if st.floating > 0 || st.waitqLen() == 0 {
		return
	}
	ni := st.waitqPop()
	nm := s.heap.at(ni)
	nm.Deliver = max(nm.Deliver, st.freeAt)
	nm.retry = true
	st.floating++
	s.heap.pushIdx(ni)
}

// collect merges the cross-shard messages other shards produced for this
// shard on the given outbox side. Emptied boxes keep their capacity.
func (s *shard) collect(parity int) {
	for _, other := range s.e.shards {
		box := other.outbox[parity][s.idx]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			s.heap.push(&box[i])
		}
		other.outbox[parity][s.idx] = box[:0]
	}
}

// Env is the execution environment passed to Actor.OnMessage. It accounts
// simulated cycles and routes outbound messages.
type Env struct {
	e       *Engine
	shard   *shard
	self    arch.NetworkID
	start   arch.Cycles
	charged arch.Cycles
	// psrc/pseq identify the message being executed; they parent the
	// trace edges of sends made during OnMessage. Only maintained while
	// tracing is enabled.
	psrc arch.NetworkID
	pseq uint64
}

// Machine returns the architecture description.
func (v *Env) Machine() *arch.Machine { return &v.e.M }

// Trace returns the executing shard's causal-trace view, or nil when
// tracing is disabled. The udweave runtime and libraries use it to emit
// named spans; actors must not retain it past OnMessage.
func (v *Env) Trace() *metrics.TraceView { return v.shard.trace }

// Self returns the executing actor's NetworkID.
func (v *Env) Self() arch.NetworkID { return v.self }

// Start returns the cycle at which this message began executing.
func (v *Env) Start() arch.Cycles { return v.start }

// Now returns the current simulated cycle (start plus charged cycles).
func (v *Env) Now() arch.Cycles { return v.start + v.charged }

// Charge accounts c cycles of computation on the executing actor.
func (v *Env) Charge(c arch.Cycles) {
	if c > 0 {
		v.charged += c
	}
}

// Send transmits a message. The send instruction itself costs
// CostSendMessage cycles on the sender; cross-node messages additionally
// serialize through the node's injection port and experience the
// topological latency from arch.Machine.Latency.
func (v *Env) Send(dst arch.NetworkID, kind uint8, event, cont uint64, ops ...uint64) {
	v.Charge(v.e.M.CostSendMessage)
	v.sendAt(v.Now(), 0, dst, kind, event, cont, ops)
}

// SendAfter is Send with an additional service delay before the message
// enters the network; memory controllers use it to model access latency
// without occupying the controller.
func (v *Env) SendAfter(extra arch.Cycles, dst arch.NetworkID, kind uint8, event, cont uint64, ops ...uint64) {
	v.sendAt(v.Now(), extra, dst, kind, event, cont, ops)
}

func (v *Env) sendAt(t, extra arch.Cycles, dst arch.NetworkID, kind uint8, event, cont uint64, ops []uint64) {
	if len(ops) > MaxOperands {
		panic(fmt.Sprintf("sim: send with %d operands (max %d)", len(ops), MaxOperands))
	}
	e := v.e
	srcNode := int(e.nodeOfID[v.self])
	dstNode := int(e.nodeOfID[dst])
	entry := t + extra
	cross := srcNode != dstNode
	var injBacklog64 int64
	if cross {
		// Serialize through the node's injection port (4 TB/s).
		busy := &e.injBusy64[srcNode]
		t64 := int64(entry) * 64
		if *busy < t64 {
			*busy = t64
		}
		xfer := e.injXfer64
		if e.fault != nil {
			// Degraded injection bandwidth stretches the port's service
			// time for every message leaving the node.
			xfer *= e.fault.InjFactor(int32(srcNode), entry)
		}
		*busy += xfer
		injBacklog64 = *busy - t64
		entry = arch.Cycles((*busy + 63) / 64)
	}
	// Latency class, mirroring arch.Machine.Latency but with the node
	// lookups already done.
	var lat arch.Cycles
	switch {
	case v.self == dst:
		lat = e.M.LatSameLane
	case cross:
		lat = e.M.LatCrossNode
	case int(v.self) < e.totalLanes && int(dst) < e.totalLanes &&
		int(v.self)/e.lanesPerAccel == int(dst)/e.lanesPerAccel:
		lat = e.M.LatSameAccel
	default:
		lat = e.M.LatSameNode
	}
	st := &e.state[v.self]
	// Fault verdict: a pure function of (plan seed, sender, sequence
	// number), drawn before the sequence number is consumed so that every
	// copy of a logical message — including protocol retransmissions,
	// which carry fresh sequence numbers — is faulted independently.
	fv := fault.VerdictDeliver
	var fextra arch.Cycles
	if e.fault != nil {
		fv, fextra = e.fault.Message(kind, v.self, st.seq, int32(srcNode), int32(dstNode), t)
	}
	deliver := entry + lat + fextra
	m := Message{Deliver: deliver, Src: v.self, Seq: st.seq, Dst: dst, Kind: kind, Event: event, Cont: cont, NOps: uint8(len(ops))}
	st.seq++
	copy(m.Ops[:], ops)
	s := v.shard
	s.stats.Sends++
	if s.rec != nil {
		s.rec.Send(int32(srcNode), cross, injBacklog64, t)
	}
	if s.trace != nil {
		// entry - (t + extra) is the injection-port queueing delay (zero
		// for intra-node sends), so Deliver = SendAt+Service+Queue+Net
		// holds exactly; a fault delay shows up as extra Net transit.
		s.trace.Edge(metrics.EdgeRec{
			Src: v.self, Seq: m.Seq, ParentSrc: v.psrc, ParentSeq: v.pseq,
			Dst: dst, SrcNode: int32(srcNode), DstNode: int32(dstNode),
			Kind: kind, SendAt: t, Service: extra, Queue: entry - (t + extra),
			Net: lat + fextra, Deliver: deliver,
		})
	}
	switch fv {
	case fault.VerdictDrop:
		// The message paid for injection (the port was busy either way)
		// and is traced as an edge with no matching execution, but it
		// never arrives.
		s.stats.Faults.Dropped++
		s.faultInstant("fault.drop", v.self, t)
		return
	case fault.VerdictDelay:
		s.stats.Faults.Delayed++
		s.faultInstant("fault.delay", v.self, t)
	}
	dstShard := int(e.nodeShard[dstNode])
	s.route(&m, dstShard)
	if fv == fault.VerdictDup {
		// The duplicate is a distinct message (own sequence number, one
		// extra network traversal late) so ordering stays total and the
		// receiver can observe genuine duplicate delivery.
		s.stats.Faults.Dupped++
		s.faultInstant("fault.dup", v.self, t)
		d := m
		d.Seq = st.seq
		st.seq++
		d.Deliver = deliver + lat
		s.stats.Sends++
		if s.rec != nil {
			s.rec.Send(int32(srcNode), cross, injBacklog64, t)
		}
		if s.trace != nil {
			s.trace.Edge(metrics.EdgeRec{
				Src: v.self, Seq: d.Seq, ParentSrc: v.psrc, ParentSeq: v.pseq,
				Dst: dst, SrcNode: int32(srcNode), DstNode: int32(dstNode),
				Kind: kind, SendAt: t, Service: extra, Queue: entry - (t + extra),
				Net: lat + lat + fextra, Deliver: d.Deliver,
			})
		}
		s.route(&d, dstShard)
	}
}

// dramKind reports whether a message kind is a memory-controller request
// eligible for replica failover at a fail-stopped destination.
func dramKind(k uint8) bool {
	switch k {
	case arch.KindDRAMRead, arch.KindDRAMWrite, arch.KindDRAMFetchAdd, arch.KindDRAMWriteHint, arch.KindDRAMFetchAddHint:
		return true
	}
	return false
}

// route inserts a fully-built message into the destination shard's heap
// or this shard's outbox.
func (s *shard) route(m *Message, dstShard int) {
	if dstShard == s.idx {
		s.heap.push(m)
	} else {
		s.outbox[s.parity][dstShard] = append(s.outbox[s.parity][dstShard], *m)
		if m.Deliver < s.outMin {
			s.outMin = m.Deliver
		}
		if m.Deliver < s.outTo[dstShard] {
			s.outTo[dstShard] = m.Deliver
		}
	}
}

// resetOut clears the staged-message minima after the shard's uncollected
// outbox messages have been handed to their consumers.
func (s *shard) resetOut() {
	s.outMin = math.MaxInt64
	for i := range s.outTo {
		s.outTo[i] = math.MaxInt64
	}
}

// faultInstant annotates a fault on the involved lane's span track (the
// same track that carries its udweave execution spans), so drops, dups,
// delays, stalls and dead-letters are visible in the Perfetto timeline.
// Non-lane actors have no span track and are skipped.
func (s *shard) faultInstant(name string, id arch.NetworkID, at arch.Cycles) {
	if s.trace == nil || int(id) >= s.e.totalLanes {
		return
	}
	s.trace.Instant(s.e.nodeOfID[id], int32(int(id)%s.e.lanesPerNode)+1, name, at)
}

// DRAMSlowdown returns the fault-injection DRAM service-time multiplier
// for the executing actor's node (1 when no plan is installed or the node
// is undegraded). The memory controller model stretches its bandwidth
// horizon by it.
func (v *Env) DRAMSlowdown() int64 {
	if v.e.fault == nil {
		return 1
	}
	return v.e.fault.DRAMFactor(v.e.nodeOfID[v.self], v.Now())
}

// AddShuffle accounts shuffle traffic in the run statistics: msgs
// inter-node network messages carrying tuples payload. Runtimes call it
// once per cross-node payload send and once per logical emit so packed
// and unpacked runs stay comparable; acks, control traffic and intra-node
// deliveries are excluded.
func (v *Env) AddShuffle(msgs, tuples int64) {
	v.shard.stats.ShuffleMsgs += msgs
	v.shard.stats.ShuffleTuples += tuples
}

// AddDRAMTraffic accounts memory traffic in the run statistics, with the
// controller's bandwidth horizon (busy64, in 1/64-cycle units), which the
// metrics layer turns into a queue-occupancy series; it is called by the
// memory controller model. Controllers that do not model a horizon may pass
// zero.
func (v *Env) AddDRAMTraffic(bytes, busy64 int64) {
	v.shard.stats.DRAMBytes += bytes
	if v.shard.rec != nil {
		backlog := busy64 - int64(v.Now())*64
		if backlog < 0 {
			backlog = 0
		}
		v.shard.rec.DRAM(v.e.nodeOfID[v.self], bytes, backlog, v.Now())
	}
}
