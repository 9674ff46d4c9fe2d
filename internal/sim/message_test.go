package sim

import (
	"fmt"
	"sort"
	"testing"

	"updown/internal/arch"
	"updown/internal/prng"
)

// queueDiff drives a msgHeap and a sorted reference through the same
// operations and fails on the first observable difference: pop order,
// len/live/topDeliver, beats verdicts and the enumerated queued set.
type queueDiff struct {
	t   *testing.T
	h   msgHeap
	ref []*Message // queued set, kept sorted in the total order
	// parked are arena slots popped but neither released nor re-queued,
	// like the engine's per-actor wait queues.
	parked []int32
	seq    map[arch.NetworkID]uint64
	// now is the Deliver of the last pop: the engine never pushes below it
	// during a run.
	now arch.Cycles
}

func newQueueDiff(t *testing.T) *queueDiff {
	return &queueDiff{t: t, seq: map[arch.NetworkID]uint64{}}
}

func (q *queueDiff) refInsert(m Message) {
	i := sort.Search(len(q.ref), func(i int) bool { return m.before(q.ref[i]) })
	q.ref = append(q.ref, nil)
	copy(q.ref[i+1:], q.ref[i:])
	q.ref[i] = &m
}

// push queues a fresh message at cycle d from src; Ops[0] tags it so a
// mixed-up arena slot shows as a payload mismatch.
func (q *queueDiff) push(d arch.Cycles, src arch.NetworkID) {
	m := Message{Deliver: d, Src: src, Seq: q.seq[src], Dst: 1, NOps: 1}
	m.Ops[0] = uint64(d)<<20 ^ uint64(src)<<8 ^ m.Seq
	q.seq[src]++
	q.h.push(&m)
	q.refInsert(m)
	q.check()
}

// pop removes the minimum from both and compares; it returns the arena
// slot, which the caller releases, parks or re-queues.
func (q *queueDiff) pop() int32 {
	q.t.Helper()
	i := q.h.popIdx()
	got, want := *q.h.at(i), *q.ref[0]
	if got != want {
		q.t.Fatalf("pop: got (%d,%d,%d) ops0=%#x, want (%d,%d,%d) ops0=%#x",
			got.Deliver, got.Src, got.Seq, got.Ops[0], want.Deliver, want.Src, want.Seq, want.Ops[0])
	}
	q.ref = q.ref[1:]
	q.now = got.Deliver
	return i
}

// requeue bumps a popped (or parked) slot's Deliver and pushes it back by
// index, as the engine does for a floating retry.
func (q *queueDiff) requeue(i int32, d arch.Cycles) {
	m := q.h.at(i)
	m.Deliver = d
	m.retry = true
	q.refInsert(*m)
	q.h.pushIdx(i)
	q.check()
}

func (q *queueDiff) check() {
	q.t.Helper()
	h := &q.h
	if h.len() != len(q.ref) {
		q.t.Fatalf("len %d, want %d", h.len(), len(q.ref))
	}
	if want := len(q.ref) + len(q.parked); h.live() != want {
		q.t.Fatalf("live %d, want %d", h.live(), want)
	}
	if len(q.ref) == 0 {
		if !h.beats(1<<40, 0, 0) {
			q.t.Fatal("beats false on an empty queue")
		}
		return
	}
	top := q.ref[0]
	if h.topDeliver() != top.Deliver {
		q.t.Fatalf("topDeliver %d, want %d", h.topDeliver(), top.Deliver)
	}
}

// checkBeats compares beats against the reference for keys around the
// minimum, including ties on the cycle and on (cycle, src).
func (q *queueDiff) checkBeats() {
	q.t.Helper()
	if len(q.ref) == 0 {
		return
	}
	top := *q.ref[0]
	for _, k := range []Message{
		{Deliver: top.Deliver - 1, Src: top.Src + 1},
		{Deliver: top.Deliver + 1, Src: 0},
		{Deliver: top.Deliver, Src: top.Src - 1, Seq: top.Seq + 1},
		{Deliver: top.Deliver, Src: top.Src + 1},
		{Deliver: top.Deliver, Src: top.Src, Seq: top.Seq + 1},
		{Deliver: top.Deliver, Src: top.Src, Seq: top.Seq - 1},
	} {
		if got, want := q.h.beats(k.Deliver, k.Src, k.Seq), k.before(&top); got != want {
			q.t.Fatalf("beats(%d,%d,%d) = %v against top (%d,%d,%d)",
				k.Deliver, k.Src, k.Seq, got, top.Deliver, top.Src, top.Seq)
		}
	}
	q.check()
}

// checkEnum compares the snapshot enumerator with the queued set.
func (q *queueDiff) checkEnum() {
	q.t.Helper()
	got := q.h.appendQueued(nil)
	sort.Slice(got, func(i, j int) bool { return got[i].before(&got[j]) })
	if len(got) != len(q.ref) {
		q.t.Fatalf("enumerated %d messages, %d queued", len(got), len(q.ref))
	}
	for i := range got {
		if got[i] != *q.ref[i] {
			q.t.Fatalf("enumerated[%d] = (%d,%d,%d), want (%d,%d,%d)", i,
				got[i].Deliver, got[i].Src, got[i].Seq, q.ref[i].Deliver, q.ref[i].Src, q.ref[i].Seq)
		}
	}
}

func (q *queueDiff) drain() {
	q.t.Helper()
	for len(q.ref) > 0 {
		q.h.release(q.pop())
		q.check()
	}
}

// TestHeapOrderProperty is the differential test of the shard event queue
// (ring + far heap) against a sorted slice.
func TestHeapOrderProperty(t *testing.T) {
	// Delivery offsets: the machine's latency classes, same-cycle pushes,
	// both sides of the span edge, and far timers.
	offsets := []arch.Cycles{0, 1, 2, 2, 10, 10, 30, 200, 1000, 1000,
		wheelSpan - 1, wheelSpan, wheelSpan + 1, 3*wheelSpan + 7, 100000}
	for _, seed := range []uint64{1, 2, 0xC0FFEE} {
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			rng := prng.NewStream(seed)
			q := newQueueDiff(t)
			for step := 0; step < 24000; step++ {
				// Grow for a while, then shrink, so the queue crosses empty,
				// the ring wraps many times and compaction gets its chance.
				growing := step%6000 < 3000
				r := rng.Intn(100)
				switch {
				case r < 40 && growing || r < 25:
					// A burst from few senders: (Deliver, Src) ties on Seq.
					d := q.now + offsets[rng.Intn(len(offsets))]
					for k := rng.Intn(4); k >= 0; k-- {
						q.push(d, arch.NetworkID(rng.Intn(6)))
					}
				case r < 90:
					if len(q.ref) == 0 {
						continue
					}
					i := q.pop()
					switch v := rng.Intn(10); {
					case v < 2: // busy actor: bumped retry, re-queued by index
						q.requeue(i, q.now+arch.Cycles(rng.Intn(40)))
					case v < 3: // parked behind a busy actor
						q.parked = append(q.parked, i)
					default:
						q.h.release(i)
					}
					q.check()
				case r < 93:
					if n := len(q.parked); n > 0 {
						i := q.parked[n-1]
						q.parked = q.parked[:n-1]
						d := q.h.at(i).Deliver
						if d < q.now {
							d = q.now
						}
						q.requeue(i, d)
					}
				case r < 96:
					q.checkBeats()
				case r < 97:
					q.checkEnum()
				case r < 98:
					// Host Post between runs, possibly far behind the cursor.
					d := q.now - arch.Cycles(rng.Intn(3*wheelSpan))
					if d < 0 {
						d = 0
					}
					q.push(d, arch.NetworkID(6+rng.Intn(2)))
				default:
					q.h.compact()
					q.check()
				}
			}
			for n := len(q.parked); n > 0; n = len(q.parked) {
				i := q.parked[n-1]
				q.parked = q.parked[:n-1]
				q.requeue(i, q.now)
			}
			q.checkEnum()
			q.drain()
		})
	}

	t.Run("span-edge", func(t *testing.T) {
		// An entry exactly wheelSpan ahead starts in the far tier and must
		// migrate in when the cursor advances by one cycle — before the
		// entry one cycle earlier that then shares its ring neighbourhood.
		q := newQueueDiff(t)
		base := arch.Cycles(5*wheelSpan - 3) // ring wraps inside the test
		q.push(base, 0)
		q.h.release(q.pop())
		q.push(base+wheelSpan, 1)   // far: one past the span
		q.push(base+wheelSpan-1, 2) // last ring slot
		q.push(base+wheelSpan+1, 3)
		q.push(base+1, 4)
		if len(q.h.far) != 2 {
			t.Fatalf("%d far entries, want 2", len(q.h.far))
		}
		q.h.release(q.pop()) // base+1: cursor moves, base+wheelSpan migrates
		if len(q.h.far) != 1 {
			t.Fatalf("%d far entries after the cursor moved one cycle, want 1", len(q.h.far))
		}
		q.push(base+wheelSpan, 0) // now inside the span, same cycle as the migrant
		q.checkEnum()
		q.drain()
	})

	t.Run("behind-cursor", func(t *testing.T) {
		// A later phase posts at cycle 0 after the cursor ran ahead; the
		// entries already queued (ring, current cycle, far) keep their order.
		q := newQueueDiff(t)
		for d := arch.Cycles(0); d < 3*wheelSpan; d += 97 {
			q.push(d, arch.NetworkID(d%5))
		}
		for q.now < 2*wheelSpan {
			q.h.release(q.pop())
		}
		q.push(q.now, 9) // same cycle as the one being served
		q.push(q.now+10*wheelSpan, 9)
		q.checkBeats() // loads the current cycle
		q.push(0, 1)
		q.push(q.now-1, 2)
		q.push(0, 0)
		q.checkEnum()
		q.drain()
	})

	t.Run("compact", func(t *testing.T) {
		q := newQueueDiff(t)
		rng := prng.NewStream(7)
		for k := 0; k < 20000; k++ {
			q.push(arch.Cycles(rng.Intn(3*wheelSpan)), arch.NetworkID(rng.Intn(50)))
		}
		for len(q.ref) > 3000 {
			q.h.release(q.pop())
		}
		parked := q.pop()
		q.parked = append(q.parked, parked)
		before := len(q.h.pages) // 20,000 pushes: five pages
		q.h.compact()            // refused: a slot is parked outside the queue
		if len(q.h.pages) != before {
			t.Fatal("compact moved slots while one was parked")
		}
		q.parked = nil
		q.requeue(parked, q.now)
		q.h.compact()
		want := (len(q.ref) + pageSize - 1) / pageSize
		if len(q.h.pages) != want || want >= before || q.h.slots != len(q.ref) || len(q.h.free) != 0 {
			t.Fatalf("compact left %d of %d pages, %d slots, free %d for %d entries",
				len(q.h.pages), before, q.h.slots, len(q.h.free), len(q.ref))
		}
		q.check()
		q.checkEnum()
		for k := 0; k < 500; k++ { // the rebuilt arena and links keep working
			q.push(q.now+arch.Cycles(rng.Intn(2*wheelSpan)), arch.NetworkID(rng.Intn(50)))
		}
		q.drain()
	})

	t.Run("zero-value", func(t *testing.T) {
		// Restore resets a shard's queue with msgHeap{}.
		q := newQueueDiff(t)
		q.check()
		q.push(1<<40, 3)
		q.push(7, 3)
		q.drain()
		q.h = msgHeap{}
		q.now = 0
		q.push(2, 1)
		q.push(2, 0)
		q.push(wheelSpan+2, 0)
		q.checkEnum()
		q.drain()
		if q.h.len() != 0 || q.h.live() != 0 {
			t.Fatalf("len %d live %d after drain", q.h.len(), q.h.live())
		}
	})
}
