// Persistent worker pool for the window-parallel engine.
//
// The previous engine spawned nshards goroutines and joined a
// sync.WaitGroup twice per lookahead window (once to process, once to
// collect cross-shard messages). On window-dominated workloads — one
// event per window is common in latency-bound phases — that host
// overhead dwarfed the simulation work. This pool starts one goroutine
// per shard for the whole Run and synchronizes them with a reusable
// sense-reversing barrier, one barrier cycle per window:
//
//	publish local min ─ barrier (reduce → horizons) ─ collect ─ process
//
// The process and collect phases fuse into a single barrier cycle
// because outboxes are double-buffered by window parity: the buffer a
// shard writes during window w is only read by its consumers after the
// w+1 barrier, and is only written again (window w+2) after every
// consumer has passed the w+2 barrier — by which point the consumer has
// finished draining it. The barrier itself is the only synchronization.
//
// The reduction computes each shard's horizon from what its peers could
// still send it (see lookahead.go): next[A] is the earliest message
// shard A could still execute — its heap top plus staged outbox
// messages bound for it — and horizon[B] is the min over A != B of
// next[A] + laMat[A][B].
//
// Between barriers a lock-free extension phase runs:
// after draining its window, a shard that staged no cross-shard traffic
// publishes the earliest cycle anything it does next could become
// visible elsewhere (heap top + laRow, monotone non-decreasing until
// the next barrier) and keeps processing up to the minimum of its
// peers' published frontiers. The instant any shard stages a
// cross-shard message it requests a barrier and stops extending, so
// staged messages are always delivered through the parity-buffered
// collect path. Chained same-shard workloads thus advance without any
// barrier at all, while cross-shard traffic falls back to the proven
// window protocol.
package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"updown/internal/arch"
)

// barrier is a reusable sense-reversing barrier for n participants. The
// last goroutine to arrive runs the reduction closure before releasing
// the others.
type barrier struct {
	n      int32
	count  atomic.Int32
	sense  atomic.Uint32
	single bool // GOMAXPROCS == 1: yield immediately instead of spinning
}

func newBarrier(n int) *barrier {
	return &barrier{n: int32(n), single: runtime.GOMAXPROCS(0) == 1}
}

// await blocks until all n participants have arrived with the same sense
// value, which must alternate 1,0,1,... on successive calls. fn, when
// non-nil, runs exactly once per cycle, on the last arriver, while the
// others wait; writes it makes are visible to every participant after
// release (the atomic sense store/load pair orders them).
func (b *barrier) await(sense uint32, fn func()) {
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		if fn != nil {
			fn()
		}
		b.sense.Store(sense)
		return
	}
	spin := 0
	for b.sense.Load() != sense {
		spin++
		if b.single || spin&63 == 0 {
			runtime.Gosched()
		}
	}
}

// paddedCycles keeps per-worker published minima on separate cache lines.
type paddedCycles struct {
	v arch.Cycles
	_ [56]byte
}

// paddedAtomic keeps the extension-phase frontier atomics on separate
// cache lines; each is written by its owning shard and read by peers.
type paddedAtomic struct {
	v atomic.Int64
	_ [56]byte
}

// pool is the per-Run coordination state of the persistent workers.
type pool struct {
	e    *Engine
	bar  *barrier
	mins []paddedCycles
	// next and horizon are reduction scratch/output: next[A] is the
	// earliest message shard A could still execute, horizon[B] the
	// causality-safe processing bound for shard B this window. Written
	// by the last barrier arriver, read by everyone after release.
	next    []arch.Cycles
	horizon []arch.Cycles
	// pubs[A] is shard A's published extension frontier: no message from
	// A can be delivered anywhere before it. Initialized by the
	// reduction, re-published (monotone non-decreasing) by A while it
	// extends, stale-but-valid once A stops.
	pubs []paddedAtomic
	// barrierReq is set by the first shard that stages a cross-shard
	// message during the extension phase; every extender polls it and
	// returns to the barrier, where the reduction clears it.
	barrierReq atomic.Bool
	// windowStart is the earliest pending message time across all
	// shards, written by the last barrier arriver each cycle;
	// math.MaxInt64 means the simulation is quiescent.
	windowStart arch.Cycles
	timedOut    bool
}

// runParallel executes Run with nshards persistent workers. It reports
// whether simulated time exceeded MaxTime.
func (e *Engine) runParallel() bool {
	n := e.nshards
	p := &pool{
		e:       e,
		bar:     newBarrier(n),
		mins:    make([]paddedCycles, n),
		next:    make([]arch.Cycles, n),
		horizon: make([]arch.Cycles, n),
		pubs:    make([]paddedAtomic, n),
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for _, s := range e.shards {
		go func(s *shard) {
			defer wg.Done()
			p.worker(s)
		}(s)
	}
	wg.Wait()
	return p.timedOut
}

// reduce runs on the last barrier arriver: it folds the published heap
// tops and the staged outbox minima into next[], derives the global
// window start and the per-shard horizons, and re-arms the extension
// frontiers for the coming inter-barrier span.
func (p *pool) reduce() {
	e := p.e
	next := p.next
	for i := range next {
		next[i] = p.mins[i].v
	}
	for _, s := range e.shards {
		for d, v := range s.outTo {
			if v < next[d] {
				next[d] = v
			}
		}
	}
	min := arch.Cycles(math.MaxInt64)
	for _, v := range next {
		if v < min {
			min = v
		}
	}
	p.windowStart = min
	if min == math.MaxInt64 {
		return
	}
	if min > e.maxTime {
		p.timedOut = true
		return
	}
	if e.tel != nil {
		// Quiesced point: every worker is parked in the barrier, so the
		// reduction owns all simulation state and may publish a snapshot
		// (and run a requested dump). A requested stop latches
		// e.interrupted, which the workers check right after release.
		e.telemetryBeat(min)
		if e.interrupted {
			return
		}
	}
	for b := range p.horizon {
		h := arch.Cycles(math.MaxInt64)
		for a := range next {
			if a == b {
				continue
			}
			if v := satAdd(next[a], e.laMat[a][b]); v < h {
				h = v
			}
		}
		p.horizon[b] = h
	}
	for a := range next {
		p.pubs[a].v.Store(int64(satAdd(next[a], e.laRow[a])))
	}
	p.barrierReq.Store(false)
}

// worker is the per-shard loop; see the package comment for the window
// protocol and the outbox double-buffering argument.
func (p *pool) worker(s *shard) {
	e := p.e
	maxH := satAdd(e.maxTime, 1)
	sense := uint32(0)
	parity := 0
	for {
		// Publish this shard's heap top; the reduction folds in the
		// staged outbox minima (outTo) directly, since every producer
		// is quiesced at the barrier.
		lm := arch.Cycles(math.MaxInt64)
		if s.heap.len() > 0 {
			lm = s.heap.topDeliver()
		}
		p.mins[s.idx].v = lm
		sense ^= 1
		p.bar.await(sense, p.reduce)
		if p.windowStart == math.MaxInt64 || p.timedOut || e.interrupted {
			break
		}
		// Collect what the previous window produced for us, then reuse
		// that buffer side for this window's outbound messages.
		s.collect(parity ^ 1)
		s.resetOut()
		s.parity = parity
		p.extend(s, p.horizon[s.idx], maxH)
		parity ^= 1
	}
	// Drain any uncollected inbound messages (possible when MaxTime was
	// exceeded) so a later Run on the same engine does not lose them.
	// Every producer is past the final barrier, so the reads are ordered.
	s.collect(0)
	s.collect(1)
}

// extend processes the shard's window and then keeps widening it without
// barriers while that is provably safe: as long as no shard has staged a
// cross-shard message, every peer's published frontier bounds the
// earliest delivery it could still cause here, so the shard may process
// up to the minimum of those frontiers. Returns to the barrier when the
// shard stages cross-shard traffic itself (after requesting a barrier),
// when a peer requests one, or when nothing below MaxTime remains.
func (p *pool) extend(s *shard, horizon, maxH arch.Cycles) {
	e := p.e
	if horizon > maxH {
		horizon = maxH
	}
	lastPub := int64(math.MinInt64)
	for {
		if e.tel != nil {
			// Keep the watchdog fed during long barrier-free spans, and
			// force a barrier when an observer needs a quiesced point
			// (dump or stop). Returning early is always safe — the window
			// protocol recomputes horizons from scratch.
			e.tel.Touch()
			if e.tel.BarrierWanted() {
				p.barrierReq.Store(true)
				return
			}
		}
		if s.heap.len() > 0 && s.heap.topDeliver() < horizon {
			s.processWindow(horizon, true)
			s.heap.compact()
		}
		if s.outMin != math.MaxInt64 {
			// Cross-shard traffic staged: its delivery needs the
			// parity-buffered collect, so hand control back to the
			// window protocol. The pre-barrier frontier stays valid:
			// everything staged this span delivers at or after it.
			p.barrierReq.Store(true)
			return
		}
		top := arch.Cycles(math.MaxInt64)
		if s.heap.len() > 0 {
			top = s.heap.topDeliver()
		}
		// Publish how soon anything this shard does next could become
		// visible to a peer. Monotone between barriers: top never
		// decreases while no cross-shard message is collected.
		if pub := int64(satAdd(top, e.laRow[s.idx])); pub != lastPub {
			p.pubs[s.idx].v.Store(pub)
			lastPub = pub
		}
		if top >= maxH || p.barrierReq.Load() {
			return
		}
		ext := arch.Cycles(math.MaxInt64)
		for i := range p.pubs {
			if i == s.idx {
				continue
			}
			if v := arch.Cycles(p.pubs[i].v.Load()); v < ext {
				ext = v
			}
		}
		if ext > maxH {
			ext = maxH
		}
		if ext > horizon && top < ext {
			horizon = ext
			continue
		}
		// A peer's frontier caps us below our next event; wait for it
		// to advance (or to request a barrier).
		runtime.Gosched()
	}
}
