package gasmem

import (
	"bytes"
	"testing"
)

// repGAS builds a 4-node space with one k=3 region of 8 blocks.
func repGAS(t *testing.T) (*GAS, VA) {
	t.Helper()
	g := New(4, 1<<20)
	va, err := g.DRAMmallocRep(8*1024, 0, 4, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, va
}

func TestTranslateReplicaPlacement(t *testing.T) {
	g, va := repGAS(t)
	r := g.RegionOf(va)
	if r == nil || r.Rep != 3 {
		t.Fatalf("region missing or Rep=%v, want 3", r)
	}
	// Stripe j of the block homed at ring position i lives on node
	// (i+j) mod 4; stripe 0 matches the classic translation.
	for blk := 0; blk < 8; blk++ {
		a := va + VA(blk)*1024
		home, _ := r.Translate(a)
		if home != blk%4 {
			t.Fatalf("block %d primary on node %d, want %d", blk, home, blk%4)
		}
		for j := 0; j < 3; j++ {
			node, _ := r.TranslateReplica(a, j)
			if node != (blk+j)%4 {
				t.Fatalf("block %d stripe %d on node %d, want %d", blk, j, node, (blk+j)%4)
			}
			if got, ok := r.ReplicaIndexOn(a, node); !ok || got != j {
				t.Fatalf("ReplicaIndexOn(blk %d, node %d) = (%d,%v), want (%d,true)", blk, node, got, ok, j)
			}
		}
		if _, ok := r.ReplicaIndexOn(a, (blk+3)%4); ok {
			t.Fatalf("block %d: node %d reported as replica holder, holds none", blk, (blk+3)%4)
		}
	}
	// Replica stripes must not alias: distinct (node, phys) per copy.
	seen := map[[2]uint64]bool{}
	for j := 0; j < 3; j++ {
		node, phys := r.TranslateReplica(va, j)
		k := [2]uint64{uint64(node), phys}
		if seen[k] {
			t.Fatalf("stripe %d aliases another copy at node %d phys %#x", j, node, phys)
		}
		seen[k] = true
	}
}

func TestHintOpRoundTrip(t *testing.T) {
	for _, c := range []struct {
		va   VA
		node int
	}{{4096, 0}, {hintVALimit - 8, 1023}, {1 << 40, 7}} {
		va, node := SplitHintOp(HintOp(c.va, c.node))
		if va != c.va || node != c.node {
			t.Fatalf("HintOp(%#x,%d) round-trips to (%#x,%d)", c.va, c.node, va, node)
		}
	}
}

func TestDRAMmallocRepRejectsBadFactors(t *testing.T) {
	g := New(4, 1<<20)
	if _, err := g.DRAMmallocRep(4096, 0, 4, 1024, 0); err == nil {
		t.Error("rep=0 accepted")
	}
	if _, err := g.DRAMmallocRep(4096, 0, 4, 1024, 5); err == nil {
		t.Error("rep=5 > nrNodes accepted")
	}
	if _, err := g.DRAMmallocRep(4096, 0, 4, 1024, -1); err == nil {
		t.Error("rep=-1 accepted")
	}
}

func TestHostAccessorsFanOutAndFailOver(t *testing.T) {
	g, va := repGAS(t)
	r := g.RegionOf(va)
	const words = 1024
	for i := uint64(0); i < words; i++ {
		g.WriteU64(va+VA(i)*WordBytes, i*3+7)
	}
	// Every stripe holds the same bytes.
	for i := uint64(0); i < words; i++ {
		a := va + VA(i)*WordBytes
		for j := 0; j < 3; j++ {
			n, phys := r.TranslateReplica(a, j)
			if got := g.store[n][phys/WordBytes]; got != i*3+7 {
				t.Fatalf("word %d stripe %d: got %d want %d", i, j, got, i*3+7)
			}
		}
	}
	// Fail-stop the primary of block 0 (node 0): reads fall over to the
	// next finally-alive copy and still see every write, including ones
	// issued after the fail-stop.
	g.SetFailStop(0, 100)
	if got := g.ReadU64(va); got != 7 {
		t.Fatalf("post-failstop read = %d, want 7", got)
	}
	g.WriteU64(va, 99)
	if got := g.ReadU64(va); got != 99 {
		t.Fatalf("read after post-failstop write = %d, want 99", got)
	}
}

func TestWriteTargetsCoordinatorAndHints(t *testing.T) {
	g, va := repGAS(t)
	var tg [MaxRep]WriteTarget
	// All alive: legs are the preference list in order, no hints.
	n := g.WriteTargets(va, 0, &tg)
	if n != 3 {
		t.Fatalf("leg count %d, want 3", n)
	}
	for j := 0; j < 3; j++ {
		if tg[j].Hint || tg[j].Node != j || tg[j].Op0 != uint64(va) {
			t.Fatalf("leg %d = %+v, want node %d plain write", j, tg[j], j)
		}
	}
	// Primary dead at issue time: its leg becomes a hint at the next
	// finally-alive ring node, and the first live replica coordinates.
	g.SetFailStop(0, 50)
	n = g.WriteTargets(va, 60, &tg)
	if n != 3 {
		t.Fatalf("leg count %d, want 3", n)
	}
	if tg[0].Hint || tg[0].Node != 1 {
		t.Fatalf("coordinator leg = %+v, want live node 1", tg[0])
	}
	var hint *WriteTarget
	for j := range tg[:n] {
		if tg[j].Hint {
			hint = &tg[j]
		}
	}
	if hint == nil {
		t.Fatal("no hint leg for dead primary")
	}
	hva, intended := SplitHintOp(hint.Op0)
	if hva != va || intended != 0 {
		t.Fatalf("hint header (%#x,%d), want (%#x,0)", hva, intended, va)
	}
	if hint.Node != 3 {
		t.Fatalf("hint queued at node %d, want next finally-alive ring node 3", hint.Node)
	}
	// Before the fail-stop time the plan is not yet in force.
	n = g.WriteTargets(va, 10, &tg)
	for j := range tg[:n] {
		if tg[j].Hint {
			t.Fatalf("hint leg before fail-stop time: %+v", tg[j])
		}
	}
}

func TestFailoverReadAndHandoffTarget(t *testing.T) {
	g, va := repGAS(t)
	g.SetFailStop(2, 10)
	// Block 2's primary is node 2; the failover read goes to node 3.
	a := va + 2*1024
	node, ok := g.FailoverRead(a, 2)
	if !ok || node != 3 {
		t.Fatalf("FailoverRead = (%d,%v), want (3,true)", node, ok)
	}
	// Node 2 holds no copy of block 3 (replicas on 3,0,1).
	if _, ok := g.FailoverRead(va+3*1024, 2); ok {
		t.Fatal("FailoverRead accepted a node that holds no replica")
	}
	// Block 2's copies sit on nodes 2,3,0 — the hint goes to node 1,
	// the first finally-alive node outside the preference list.
	hn, op0, ok := g.HandoffTarget(a, 2)
	if !ok || hn != 1 {
		t.Fatalf("HandoffTarget = (%d,%v), want (1,true)", hn, ok)
	}
	if hva, intended := SplitHintOp(op0); hva != a || intended != 2 {
		t.Fatalf("handoff header (%#x,%d), want (%#x,2)", hva, intended, a)
	}
	// Unreplicated regions have no failover.
	u, err := g.DRAMmalloc(4096, 0, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.FailoverRead(u, 0); ok {
		t.Fatal("FailoverRead on unreplicated region")
	}
}

func TestReassignAndRepair(t *testing.T) {
	g, va := repGAS(t)
	const words = 1024
	for i := uint64(0); i < words; i++ {
		g.WriteU64(va+VA(i)*WordBytes, i^0xABCD)
	}
	g.SetFailStop(1, 10)
	// The spare node does not exist in a 4-node space; rebuild with 5.
	g5 := New(5, 1<<20)
	va5, err := g5.DRAMmallocRep(8*1024, 0, 4, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < words; i++ {
		g5.WriteU64(va5+VA(i)*WordBytes, i^0xABCD)
	}
	g5.SetFailStop(1, 10)
	if err := g5.Reassign(1, 4); err != nil {
		t.Fatal(err)
	}
	// The spare's stripes start zeroed; Repair must copy full content
	// from surviving peers.
	if w := g5.Repair(4); w == 0 {
		t.Fatal("Repair copied nothing into the zeroed spare")
	}
	r := g5.RegionOf(va5)
	for i := uint64(0); i < words; i++ {
		a := va5 + VA(i)*WordBytes
		for j := 0; j < 3; j++ {
			node, phys := r.TranslateReplica(a, j)
			if node == 1 {
				t.Fatalf("word %d stripe %d still mapped to dead node 1", i, j)
			}
			if got := g5.store[node][phys/WordBytes]; got != i^0xABCD {
				t.Fatalf("word %d stripe %d after repair: got %d want %d", i, j, got, i^0xABCD)
			}
		}
	}
	// A second Repair is a no-op: the stripes already agree.
	if w := g5.Repair(4); w != 0 {
		t.Fatalf("second Repair changed %d words, want 0", w)
	}
	// In-place repair on the original space: corrupt one copy, Repair
	// restores it from a peer.
	n, phys := g.RegionOf(va).TranslateReplica(va, 1)
	g.Recover(1)
	g.store[n][phys/WordBytes] = 12345
	if w := g.Repair(n); w != 1 {
		t.Fatalf("Repair fixed %d words, want exactly the corrupted 1", w)
	}
	if got := g.store[n][phys/WordBytes]; got != 0^0xABCD {
		t.Fatalf("corrupted word after repair = %d, want %d", got, 0^0xABCD)
	}
}

func TestReplicatedSnapshotRoundTrip(t *testing.T) {
	g, va := repGAS(t)
	for i := uint64(0); i < 64; i++ {
		g.WriteU64(va+VA(i)*WordBytes, i*31+5)
	}
	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	h := New(4, 1<<20)
	if err := h.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	r := h.RegionOf(va)
	if r == nil || r.Rep != 3 {
		t.Fatalf("restored region lost its replication factor: %+v", r)
	}
	if !h.Replicated() {
		t.Fatal("restored space does not report Replicated()")
	}
	for i := uint64(0); i < 64; i++ {
		if got := h.ReadU64(va + VA(i)*WordBytes); got != i*31+5 {
			t.Fatalf("restored word %d = %d, want %d", i, got, i*31+5)
		}
	}
	// Byte-canonical: an immediate re-snapshot reproduces the stream.
	var buf2 bytes.Buffer
	if err := h.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("replicated snapshot is not byte-canonical across restore")
	}
	// A Reassign survives the round-trip: the ring mutation is part of
	// the region descriptor, not recomputed from FirstNode.
	g5 := New(5, 1<<20)
	va5, err := g5.DRAMmallocRep(8*1024, 0, 4, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	g5.WriteU64(va5, 77)
	if err := g5.Reassign(1, 4); err != nil {
		t.Fatal(err)
	}
	g5.Repair(4)
	var b3 bytes.Buffer
	if err := g5.Snapshot(&b3); err != nil {
		t.Fatal(err)
	}
	h5 := New(5, 1<<20)
	if err := h5.RestoreSnapshot(bytes.NewReader(b3.Bytes())); err != nil {
		t.Fatal(err)
	}
	r5 := h5.RegionOf(va5)
	node, _ := r5.TranslateReplica(va5+1024, 0)
	if node != 4 {
		t.Fatalf("restored ring lost the spare substitution: block 1 primary on node %d, want 4", node)
	}
	if got := h5.ReadU64(va5); got != 77 {
		t.Fatalf("restored word = %d, want 77", got)
	}
}
