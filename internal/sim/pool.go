// The worker-pool executor: one goroutine per shard for the whole Run,
// synchronized by a reusable sense-reversing barrier, one barrier cycle
// per window:
//
//	barrier (window.reduce on the last arriver) ─ window.step ─ extend
//
// The barrier is the only synchronization of the protocol in window.go.
// Between barriers a lock-free extension phase runs: after its window, a
// shard that staged no cross-shard traffic publishes the earliest cycle
// anything it does next could become visible elsewhere (queue top +
// lookahead, monotone non-decreasing until the next barrier) and keeps
// processing up to the minimum of its peers' published frontiers. The
// instant any shard stages a cross-shard message it requests a barrier
// and stops extending, so staged messages are always delivered through
// the parity-buffered collect of the next step. Chained same-shard
// workloads thus advance without any barrier at all.
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

// paddedAtomic keeps the extension-phase frontier atomics on separate
// cache lines; each is written by its owning shard and read by peers.
type paddedAtomic struct {
	v atomic.Int64
	_ [56]byte
}

// pool is the per-Run coordination state of the persistent workers.
type pool struct {
	e   *Engine
	bar *barrier
	// more is window.reduce's verdict for the coming window, written by
	// the last barrier arriver and read by everyone after release.
	more bool
	// pubs[a] is shard a's published extension frontier: no message from
	// a can be delivered anywhere before it. Re-armed by the reduction,
	// re-published (monotone non-decreasing) by a while it extends,
	// stale-but-valid once a stops.
	pubs []paddedAtomic
	// barrierReq is set by the first shard that stages a cross-shard
	// message during the extension phase; every extender polls it and
	// returns to the barrier, where the reduction clears it.
	barrierReq atomic.Bool
}

// runPool executes Run with nshards persistent workers.
func (e *Engine) runPool() {
	p := &pool{e: e, bar: newBarrier(e.nshards), pubs: make([]paddedAtomic, e.nshards)}
	var wg sync.WaitGroup
	wg.Add(e.nshards)
	for _, s := range e.shards {
		go func(s *shard) {
			defer wg.Done()
			p.worker(s)
		}(s)
	}
	wg.Wait()
}

// reduce runs the window reduction on the last barrier arriver and re-arms
// the extension frontiers for the coming inter-barrier span.
func (p *pool) reduce() {
	w := &p.e.win
	if p.more = w.reduce(); !p.more {
		return
	}
	for a, v := range w.next {
		p.pubs[a].v.Store(int64(satAdd(v, p.e.lookahead)))
	}
	p.barrierReq.Store(false)
}

func (p *pool) worker(s *shard) {
	w := &p.e.win
	sense := uint32(0)
	for parity := 0; ; parity ^= 1 {
		sense ^= 1
		p.bar.await(sense, p.reduce)
		if !p.more {
			return
		}
		w.step(s, parity)
		p.extend(s, w.horizon[s.idx])
	}
}

// extend keeps widening the window step just ran without barriers while
// that is provably safe: as long as no shard has staged a cross-shard
// message, every peer's published frontier bounds the earliest delivery
// it could still cause here, so the shard may process up to the minimum
// of those frontiers. Returns to the barrier when the shard stages
// cross-shard traffic itself (after requesting a barrier), when a peer
// requests one, or when nothing within the run's limit remains.
func (p *pool) extend(s *shard, horizon arch.Cycles) {
	e := p.e
	maxH := satAdd(e.win.limit, 1)
	lastPub := int64(math.MinInt64)
	for {
		if s.outMin != math.MaxInt64 {
			// Cross-shard traffic staged: its delivery needs the
			// parity-buffered collect, so hand control back to the
			// window protocol. The pre-barrier frontier stays valid:
			// everything staged this span delivers at or after it.
			p.barrierReq.Store(true)
			return
		}
		// Publish how soon anything this shard does next could become
		// visible to a peer. Monotone between barriers: top never
		// decreases while no cross-shard message is collected.
		top := s.heap.frontier()
		if pub := int64(satAdd(top, e.lookahead)); pub != lastPub {
			p.pubs[s.idx].v.Store(pub)
			lastPub = pub
		}
		if top >= maxH || p.barrierReq.Load() {
			return
		}
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
		ext := maxH
		for i := range p.pubs {
			if i != s.idx {
				ext = min(ext, arch.Cycles(p.pubs[i].v.Load()))
			}
		}
		if ext > horizon && top < ext {
			horizon = ext
			s.processWindow(horizon)
			s.heap.compact()
			continue
		}
		// A peer's frontier caps us below our next event; wait for it
		// to advance (or to request a barrier).
		runtime.Gosched()
	}
}
