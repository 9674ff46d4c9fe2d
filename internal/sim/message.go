package sim

import (
	"math"
	"math/bits"

	"updown/internal/arch"
)

// MaxOperands is the operand capacity of one message. The UpDown network
// moves fixed 64-byte messages, which carry up to eight 64-bit operands
// (paper Section 3).
const MaxOperands = 8

// Message is one network message: an event destined for a lane, a DRAM
// request destined for a memory controller, or a control message for an
// auxiliary actor.
//
// Messages are totally ordered by (Deliver, Src, Seq); actors process
// their inbound messages in that order, which makes every simulation run
// bit-identical for a given program, independent of host parallelism.
type Message struct {
	// Deliver is the cycle at which the message becomes available at the
	// destination. The engine may postpone execution further if the
	// destination actor is busy.
	Deliver arch.Cycles
	// Src is the sending actor and Seq its per-sender sequence number;
	// together with Deliver they form the deterministic ordering key.
	Src arch.NetworkID
	Seq uint64
	// Dst is the destination actor.
	Dst arch.NetworkID
	// Kind selects the protocol (arch.KindEvent, arch.KindDRAMRead, ...).
	Kind uint8
	// NOps is the number of valid operands in Ops.
	NOps uint8
	// Event is the event word: for KindEvent it selects the handler and
	// thread at the destination; for DRAM requests it is unused.
	Event uint64
	// Cont is the continuation word travelling with the message
	// (udweave.IGNRCONT when absent).
	Cont uint64
	// Ops are the operand words.
	Ops [MaxOperands]uint64
	// retry marks a message re-scheduled after finding its destination
	// busy (engine-internal; see the wait-queue invariant in engine.go).
	retry bool
}

// before reports whether m precedes o in the deterministic total order.
func (m *Message) before(o *Message) bool {
	if m.Deliver != o.Deliver {
		return m.Deliver < o.Deliver
	}
	if m.Src != o.Src {
		return m.Src < o.Src
	}
	return m.Seq < o.Seq
}

// The shard event queue is a calendar queue: one bucket per cycle over a
// fixed span ahead of a cursor, and a binary heap as the far tier.
//
// Network latencies are 2/10/30/200/1000 cycles, so nearly every message
// is delivered within a few thousand cycles of the event that sent it.
// The ring holds exactly the queued messages with Deliver in
// [base, base+wheelSpan); cycle c maps to slot c&wheelMask, which is
// injective over that range. A slot is an intrusive singly-linked list
// threaded through link[] (parallel to the arena), so a push is three
// stores and no bucket owns storage that could outgrow the arena. A
// two-level occupancy bitmap (sum over occ) finds the next non-empty cycle
// in a handful of instructions. Messages beyond the span — timers, lingers,
// termination polls — wait in the far heap and migrate into the ring as
// the cursor advances, so the invariant "every far entry has
// Deliver >= base+wheelSpan" always holds and the far minimum never
// precedes a ring entry.
//
// Order inside a cycle is (Src, Seq). It is established when the cursor
// reaches the cycle: load drains the slot's list into cur, a small binary
// heap whose entries embed the whole tie-break key, and pops are served
// from there. A push for the cycle being served goes straight into cur.
//
// The cursor only moves in load, i.e. when the queue's minimum is about to
// be popped (or compared against, in beats). During a run every push is at
// or after that minimum: sends land at least one cycle after the executing
// event, bumped retries at their actor's free time, and cross-shard
// arrivals at or beyond the window horizon. Only the host can push behind
// the cursor (Post between runs at an earlier cycle); reanchor then moves
// the ring back instead of misordering.

const (
	wheelBits  = 12
	wheelSpan  = 1 << wheelBits // cycles covered by the ring
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64 // occupancy words; one summary bit each
)

// heapEnt is one far-tier heap node: the (Deliver, Src) prefix of the
// ordering key plus the arena index of the full message. The 120-byte
// Message is only dereferenced to break (Deliver, Src) ties on Seq.
type heapEnt struct {
	d   arch.Cycles
	src int32
	i   int32
}

// curEnt is one entry of the cycle being served: the full within-cycle
// key (Src, Seq) plus the arena index, so ordering never touches the arena.
// src is stored with its sign bit flipped, which maps NetworkID order onto
// unsigned order and lets less compare the pair as one 96-bit number.
type curEnt struct {
	seq uint64
	src uint32
	i   int32
}

func newCurEnt(src arch.NetworkID, seq uint64, i int32) curEnt {
	return curEnt{seq: seq, src: uint32(src) ^ 1<<31, i: i}
}

// less returns 1 if a precedes b in (Src, Seq) order and 0 otherwise,
// without branching: the borrow out of the two-limb subtraction a - b.
func (a curEnt) less(b curEnt) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.src), uint64(b.src), borrow)
	return int(borrow)
}

// pageBits sizes an arena page: 4,096 messages, slot i at [i>>12][i&4095].
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// msgHeap is the shard event queue: it pops messages in the (Deliver, Src,
// Seq) total order. Messages live in an arena; the queue moves 4-byte
// arena indices. The zero value is an empty queue (Restore resets shards
// that way).
type msgHeap struct {
	// pages is the arena, in fixed-size pages so that growing it appends
	// a page instead of copying every live message, and a slot's address
	// is stable until compact. slots counts the slots ever handed out:
	// the pages before the last are full.
	pages [][]Message
	slots int
	free  []int32
	// link[i] is the successor of arena slot i in its ring slot's list,
	// stored +1 so zero ends the list.
	link []int32

	// n counts queued entries (ring + cur + far), nring the ring's share.
	n, nring int
	// base is the cursor: the ring covers [base, base+wheelSpan).
	base arch.Cycles
	// min is the Deliver of the queue's minimum; valid while n > 0.
	min arch.Cycles
	// cur holds the not-yet-popped entries of cycle base, as a binary heap
	// on (Src, Seq). While it is non-empty the ring slot of base is empty.
	cur []curEnt
	// far holds the entries with Deliver >= base+wheelSpan.
	far []heapEnt

	// sum has bit w set iff occ[w] != 0; occ has bit b of word w set iff
	// heads[w<<6|b] != 0; heads[s] is the first arena slot (+1) of ring
	// slot s.
	sum   uint64
	occ   [wheelWords]uint64
	heads [wheelSpan]int32
}

func (h *msgHeap) len() int { return h.n }

// at returns arena slot i.
func (h *msgHeap) at(i int32) *Message { return &h.pages[i>>pageBits][i&pageMask] }

// alloc copies m into a free arena slot and returns its index. The slot is
// not queued; the caller owns it until pushIdx or release.
func (h *msgHeap) alloc(m *Message) int32 {
	var i int32
	if n := len(h.free); n > 0 {
		i = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		i = int32(h.slots)
		if i&pageMask == 0 {
			h.pages = append(h.pages, make([]Message, pageSize))
		}
		h.slots++
		h.link = append(h.link, 0)
	}
	*h.at(i) = *m
	return i
}

func (h *msgHeap) push(m *Message) { h.pushIdx(h.alloc(m)) }

// pushIdx queues an already-allocated arena slot, reading the ordering key
// from the arena. The engine uses it to move parked messages between the
// per-actor wait queues and the queue without copying the 120-byte
// Message, and to re-queue a retry whose Deliver it bumped.
func (h *msgHeap) pushIdx(i int32) {
	m := h.at(i)
	d := m.Deliver
	if d < h.base {
		h.reanchor(d)
	}
	switch {
	case d-h.base >= wheelSpan:
		h.farPush(heapEnt{d: d, src: int32(m.Src), i: i})
	case d == h.base && len(h.cur) > 0:
		h.curPush(newCurEnt(m.Src, m.Seq, i))
	default:
		h.ringPush(d, i)
	}
	if h.n == 0 || d < h.min {
		h.min = d
	}
	h.n++
}

// popIdx removes the minimum entry from the queue but keeps its arena slot
// allocated; the caller owns the slot until it calls release or pushIdx.
// The slot does not move while it is parked (compaction refuses to run
// then).
func (h *msgHeap) popIdx() int32 {
	if len(h.cur) == 0 {
		h.load()
	}
	cur := h.cur
	i := cur[0].i
	last := len(cur) - 1
	x := cur[last]
	h.cur = cur[:last]
	h.n--
	if last > 0 {
		h.curSink(0, x)
	} else if h.n > 0 {
		h.min = h.nextMin()
	}
	return i
}

// release returns an arena slot obtained from popIdx to the free list.
func (h *msgHeap) release(i int32) { h.free = append(h.free, i) }

// live returns the number of allocated arena slots: queued entries plus
// slots parked outside the queue via popIdx.
func (h *msgHeap) live() int { return h.slots - len(h.free) }

// topDeliver returns the delivery time of the minimum message without
// touching the arena. It must not be called on an empty queue.
func (h *msgHeap) topDeliver() arch.Cycles { return h.min }

// frontier is topDeliver, or MaxInt64 for an empty queue.
func (h *msgHeap) frontier() arch.Cycles {
	if h.n == 0 {
		return math.MaxInt64
	}
	return h.min
}

// beats reports whether the key (d, src, seq) precedes the queue's current
// minimum in the deterministic total order (trivially true on an empty
// queue). The batched-dispatch fast path uses it to prove that a parked
// message released at its actor's free time would come straight back off
// the queue, so the round-trip can be skipped. A tie on the cycle loads
// that cycle — advancing the cursor to the minimum, which is as safe here
// as in popIdx: the caller executes at d or re-queues at d, never earlier.
func (h *msgHeap) beats(d arch.Cycles, src arch.NetworkID, seq uint64) bool {
	if h.n == 0 {
		return true
	}
	if d != h.min {
		return d < h.min
	}
	if len(h.cur) == 0 {
		h.load()
	}
	return newCurEnt(src, seq, 0).less(h.cur[0]) != 0
}

// appendQueued appends a copy of every queued message (not the parked
// ones) to msgs, in no particular order; Checkpoint sorts them.
func (h *msgHeap) appendQueued(msgs []Message) []Message {
	for _, e := range h.cur {
		msgs = append(msgs, *h.at(e.i))
	}
	for _, e := range h.far {
		msgs = append(msgs, *h.at(e.i))
	}
	h.eachSlot(func(s int) {
		for j := h.heads[s]; j != 0; j = h.link[j-1] {
			msgs = append(msgs, *h.at(j - 1))
		}
	})
	return msgs
}

// eachSlot visits every occupied ring slot.
func (h *msgHeap) eachSlot(fn func(s int)) {
	for sum := h.sum; sum != 0; sum &= sum - 1 {
		w := bits.TrailingZeros64(sum)
		for occ := h.occ[w]; occ != 0; occ &= occ - 1 {
			fn(w<<6 | bits.TrailingZeros64(occ))
		}
	}
}

// compact rebuilds the arena around the live entries when the free list
// dominates it, so multi-phase drivers (Run called repeatedly) do not
// hold peak-phase memory forever. It only runs when every live slot is
// referenced by the queue itself — parked wait-queue indices held by
// actors make slot movement unsafe — and when the arena is both mostly
// free (len(free) > 2*len) and worth reclaiming (more than one page).
func (h *msgHeap) compact() {
	if h.live() != h.n {
		return
	}
	if len(h.pages) <= 1 || len(h.free) <= 2*h.n {
		return
	}
	pages, oldLink := h.pages, h.link
	h.pages, h.slots, h.free = nil, 0, nil
	h.link = make([]int32, 0, h.n)
	move := func(i int32) int32 { return h.alloc(&pages[i>>pageBits][i&pageMask]) }
	for j := range h.cur {
		h.cur[j].i = move(h.cur[j].i)
	}
	for j := range h.far {
		h.far[j].i = move(h.far[j].i)
	}
	h.eachSlot(func(s int) {
		// A list's nodes take consecutive new indices, in list order.
		j := h.heads[s]
		h.heads[s] = int32(h.slots) + 1
		for j != 0 {
			next := oldLink[j-1]
			k := move(j - 1)
			if next != 0 {
				h.link[k] = k + 2
			}
			j = next
		}
	})
}

// ringPush links arena slot i into the ring slot of cycle d, which must
// lie in [base, base+wheelSpan).
func (h *msgHeap) ringPush(d arch.Cycles, i int32) {
	s := int(d) & wheelMask
	h.link[i] = h.heads[s]
	h.heads[s] = i + 1
	h.occ[s>>6] |= 1 << (s & 63)
	h.sum |= 1 << (s >> 6)
	h.nring++
}

// nextMin returns the Deliver of the minimum entry outside cur: the first
// occupied ring slot in ring order from the cursor, else the far minimum.
func (h *msgHeap) nextMin() arch.Cycles {
	if h.nring == 0 {
		return h.far[0].d
	}
	p := int(h.base) & wheelMask
	w, b := p>>6, p&63
	var s int
	if x := h.occ[w] >> b; x != 0 {
		s = p + bits.TrailingZeros64(x)
	} else if hi := h.sum >> (w + 1) << (w + 1); hi != 0 {
		w = bits.TrailingZeros64(hi)
		s = w<<6 | bits.TrailingZeros64(h.occ[w])
	} else {
		// Wrapped: words below w, then the bits of word w below b (its
		// bits from b up were ruled out above).
		w = bits.TrailingZeros64(h.sum)
		s = w<<6 | bits.TrailingZeros64(h.occ[w])
	}
	return h.base + arch.Cycles((s-p)&wheelMask)
}

// load advances the cursor to the queue's minimum cycle, pulls the far
// entries the move brings inside the span into the ring, and drains that
// cycle's slot into cur. The queue must be non-empty and cur empty.
func (h *msgHeap) load() {
	if h.min != h.base {
		h.rebase(h.min)
	}
	s := int(h.base) & wheelMask
	cur := h.cur
	for j := h.heads[s]; j != 0; j = h.link[j-1] {
		m := h.at(j - 1)
		cur = append(cur, newCurEnt(m.Src, m.Seq, j-1))
	}
	h.cur = cur
	h.heads[s] = 0
	if h.occ[s>>6] &^= 1 << (s & 63); h.occ[s>>6] == 0 {
		h.sum &^= 1 << (s >> 6)
	}
	h.nring -= len(cur)
	for j := len(cur)/2 - 1; j >= 0; j-- {
		h.curSink(j, cur[j])
	}
}

// rebase sets the cursor to cycle d and restores the far-tier invariant:
// far entries the span now covers move into the ring. Every ring and cur
// entry must already lie in [d, d+wheelSpan).
func (h *msgHeap) rebase(d arch.Cycles) {
	h.base = d
	for len(h.far) > 0 && h.far[0].d-d < wheelSpan {
		e := h.farPop()
		h.ringPush(e.d, e.i)
	}
}

// reanchor moves the cursor back to cycle d < base so a push behind it
// keeps the total order: everything the ring and cur hold goes to the far
// tier, and rebase brings back what the new span covers. Only a host Post
// between runs at an earlier cycle gets here, when the queue is small.
func (h *msgHeap) reanchor(d arch.Cycles) {
	far := func(i int32) {
		m := h.at(i)
		h.farPush(heapEnt{d: m.Deliver, src: int32(m.Src), i: i})
	}
	for _, e := range h.cur {
		far(e.i)
	}
	h.cur = h.cur[:0]
	h.eachSlot(func(s int) {
		for j := h.heads[s]; j != 0; j = h.link[j-1] {
			far(j - 1)
		}
		h.heads[s] = 0
	})
	h.occ = [wheelWords]uint64{}
	h.sum, h.nring = 0, 0
	h.rebase(d)
}

func (h *msgHeap) curPush(e curEnt) {
	h.cur = append(h.cur, e)
	cur := h.cur
	i := len(cur) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.less(cur[p]) == 0 {
			break
		}
		cur[i] = cur[p]
		i = p
	}
	cur[i] = e
}

// curSink places x into the sub-heap whose root i is a hole: the hole
// first descends to a leaf along the smaller children, then x climbs back
// from there. A pop re-inserts the heap's last entry, which belongs near
// the leaves, so the climb is short, and the descent picks each child
// with arithmetic instead of a data-dependent branch — the sift would
// otherwise mispredict about once per level.
func (h *msgHeap) curSink(i int, x curEnt) {
	cur := h.cur
	n := len(cur)
	root := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += cur[c+1].less(cur[c])
		}
		cur[i] = cur[c]
		i = c
	}
	for i > root {
		p := (i - 1) / 2
		if x.less(cur[p]) == 0 {
			break
		}
		cur[i] = cur[p]
		i = p
	}
	cur[i] = x
}

// farBefore reports whether far entry a precedes b in the total order.
func (h *msgHeap) farBefore(a, b heapEnt) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return h.at(a.i).Seq < h.at(b.i).Seq
}

func (h *msgHeap) farPush(e heapEnt) {
	h.far = append(h.far, e)
	far := h.far
	for i := len(far) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.farBefore(far[i], far[p]) {
			break
		}
		far[i], far[p] = far[p], far[i]
		i = p
	}
}

func (h *msgHeap) farPop() heapEnt {
	far := h.far
	top := far[0]
	n := len(far) - 1
	far[0] = far[n]
	far = far[:n]
	h.far = far
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.farBefore(far[l], far[small]) {
			small = l
		}
		if r < n && h.farBefore(far[r], far[small]) {
			small = r
		}
		if small == i {
			return top
		}
		far[i], far[small] = far[small], far[i]
		i = small
	}
}
