// Cooperative single-goroutine multiplexer for multi-shard runs on
// single-CPU hosts.
//
// The worker pool's barrier costs a goroutine-scheduling round trip per
// window, which is pure overhead when GOMAXPROCS == 1: the shards can
// never actually run concurrently, so the same schedule can be executed
// by one goroutine visiting the shards round-robin. Each round computes
// the per-shard frontiers next[A] (heap top plus staged inbound
// messages), then gives every shard the horizon from
// lookahead.go, collects its staged inbound traffic, and processes its
// window. Because everything runs on one goroutine the "extension
// protocol" is implicit: frontiers are re-read every round with no
// atomics, no barriers and no parity buffering delays — a shard's
// staged messages are handed to their destination on the very next
// visit.
//
// Determinism: the multiplexer executes the same per-actor message
// order as the pool and the sequential engine (the horizon computation
// only slices the timeline differently), so results stay bit-identical.
package sim

import (
	"math"
	"runtime"

	"updown/internal/arch"
)

// hostMode selects the parallel driver for multi-shard runs.
type hostMode uint8

const (
	// hostAuto picks the multiplexer when the process runs on one CPU
	// and the worker pool otherwise.
	hostAuto hostMode = iota
	// hostPool pins the persistent worker pool (tests).
	hostPool
	// hostMux pins the cooperative multiplexer (tests).
	hostMux
)

// useMux reports whether this Run should be driven by the cooperative
// multiplexer instead of the worker pool.
func (e *Engine) useMux() bool {
	switch e.host {
	case hostPool:
		return false
	case hostMux:
		return true
	}
	return runtime.GOMAXPROCS(0) == 1
}

// runMux executes Run on a single goroutine, multiplexing the shards
// cooperatively. It reports whether simulated time exceeded MaxTime.
func (e *Engine) runMux() bool {
	shards := e.shards
	n := e.nshards
	maxH := satAdd(e.maxTime, 1)
	next := make([]arch.Cycles, n)
	for _, s := range shards {
		s.parity = 0
		s.staged = 0
		s.resetOut()
	}
	for {
		// Frontier pass: the earliest message each shard could still
		// execute, from its heap and from peers' staged outboxes.
		min := arch.Cycles(math.MaxInt64)
		for i, s := range shards {
			v := arch.Cycles(math.MaxInt64)
			if s.heap.len() > 0 {
				v = s.heap.topDeliver()
			}
			next[i] = v
			if v < min {
				min = v
			}
		}
		anyStaged := false
		for _, s := range shards {
			if s.staged == 0 {
				continue
			}
			anyStaged = true
			for d, v := range s.outTo {
				if v < next[d] {
					next[d] = v
				}
				if v < min {
					min = v
				}
			}
		}
		if min == math.MaxInt64 {
			return false
		}
		if min > e.maxTime {
			// Hand staged messages to their destinations before
			// returning, so TimeoutError, Pending and a later Run on
			// the same engine see them in the heaps.
			if anyStaged {
				for _, s := range shards {
					s.muxCollect()
				}
			}
			return true
		}
		if e.tel != nil {
			// Single goroutine: every point between rounds is quiesced.
			e.telemetryBeat(min)
			if e.interrupted {
				// Park staged messages in the heaps, exactly like the
				// timeout path, so InterruptedError and a later Run see
				// them.
				if anyStaged {
					for _, s := range shards {
						s.muxCollect()
					}
				}
				return false
			}
		}
		progressed := false
		for _, s := range shards {
			// Horizon from the frontier snapshot. next[] entries are
			// refreshed after every visit, so the slots of shards
			// visited earlier this round reflect their advanced tops
			// plus anything they just staged — keeping the bound exact
			// for within-round leapfrogging.
			h := arch.Cycles(math.MaxInt64)
			for a := 0; a < n; a++ {
				if a == s.idx {
					continue
				}
				if v := satAdd(next[a], e.laMat[a][s.idx]); v < h {
					h = v
				}
			}
			if h > maxH {
				h = maxH
			}
			// Drain staged inbound traffic — including messages staged
			// by shards visited earlier this round — before processing,
			// so everything below the horizon is in the heap.
			s.muxCollect()
			if s.heap.len() > 0 && s.heap.topDeliver() < h {
				s.processWindow(h, true)
				s.heap.compact()
				progressed = true
			}
			// Refresh this shard's frontier slot and fold what it just
			// staged into its destinations' slots: both feed the
			// horizons of the shards visited after it.
			v := arch.Cycles(math.MaxInt64)
			if s.heap.len() > 0 {
				v = s.heap.topDeliver()
			}
			next[s.idx] = v
			if s.staged > 0 {
				for d, w := range s.outTo {
					if w < next[d] {
						next[d] = w
					}
				}
			}
		}
		if !progressed {
			// Unreachable: after collection the globally minimal
			// message sits in some shard's heap, and that shard's
			// horizon exceeds its top by at least the smallest latency
			// bound. Fail loudly rather than spin.
			panic("sim: multiplexer made no progress")
		}
	}
}

// muxCollect drains every peer outbox destined for this shard directly
// into its heap. Only the multiplexer calls it: with one goroutine there
// is no concurrent producer, so parity buffering is unnecessary and both
// sides are drained.
func (s *shard) muxCollect() {
	for _, other := range s.e.shards {
		if other.staged == 0 {
			continue
		}
		for p := 0; p < 2; p++ {
			box := other.outbox[p][s.idx]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				s.heap.push(&box[i])
			}
			other.staged -= len(box)
			other.outbox[p][s.idx] = box[:0]
		}
		other.outTo[s.idx] = math.MaxInt64
		if other.staged == 0 {
			other.outMin = math.MaxInt64
		}
	}
}
