package dram_test

import (
	"testing"

	"updown/internal/arch"
	"updown/internal/dram"
	"updown/internal/gasmem"
	"updown/internal/sim"
	"updown/internal/udweave"
)

// rig wires an engine with controllers and one scripted lane.
type rig struct {
	m   arch.Machine
	eng *sim.Engine
	gas *gasmem.GAS
}

func newRig(t *testing.T, nodes int, bytesPerCycle int) *rig {
	t.Helper()
	m := arch.DefaultMachine(nodes)
	if bytesPerCycle > 0 {
		m.DRAMBytesPerCycle = bytesPerCycle
	}
	gas := gasmem.New(m.Nodes, m.DRAMBytesPerNode)
	eng, err := sim.NewEngine(m, sim.Options{Shards: 1, MaxTime: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	dram.Install(eng, gas)
	return &rig{m: m, eng: eng, gas: gas}
}

type recorder struct {
	times []arch.Cycles
	ops   [][]uint64
}

func (r *recorder) OnMessage(env *sim.Env, m *sim.Message) {
	r.times = append(r.times, env.Start())
	r.ops = append(r.ops, append([]uint64(nil), m.Ops[:m.NOps]...))
}

// TestReadLatency: one read must complete no sooner than the access
// latency plus two network hops.
func TestReadLatency(t *testing.T) {
	r := newRig(t, 1, 0)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	r.gas.WriteU64(va, 1234)
	rec := &recorder{}
	lane := r.m.LaneID(0, 0, 0)
	r.eng.SetActor(lane, rec)
	cont := udweave.EvwExisting(lane, 0, 1)
	r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMRead, 0, cont, va, 1)
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.times) != 1 || rec.ops[0][0] != 1234 {
		t.Fatalf("response %v %v", rec.times, rec.ops)
	}
	if rec.times[0] < r.m.DRAMLatency {
		t.Fatalf("read completed at %d, before the %d-cycle access latency", rec.times[0], r.m.DRAMLatency)
	}
}

// TestBandwidthQueueing: a burst of reads against a throttled controller
// must be spread at the configured bytes/cycle.
func TestBandwidthQueueing(t *testing.T) {
	r := newRig(t, 1, 8) // 8 bytes/cycle: one word per cycle
	va, _ := r.gas.DRAMmalloc(1<<16, 0, 1, 4096)
	rec := &recorder{}
	lane := r.m.LaneID(0, 0, 0)
	r.eng.SetActor(lane, rec)
	cont := udweave.EvwExisting(lane, 0, 1)
	const burst = 64
	for i := 0; i < burst; i++ {
		// 8-word (64-byte) reads: 8 cycles of transfer each.
		r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMRead, 0, cont, va+uint64(i)*64, 8)
	}
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.times) != burst {
		t.Fatalf("%d responses", len(rec.times))
	}
	spread := rec.times[burst-1] - rec.times[0]
	if spread < (burst-1)*8*9/10 {
		t.Fatalf("burst spread %d cycles; want ~%d under the 8 B/cycle budget", spread, (burst-1)*8)
	}
}

// TestWriteThenReadOrdering: a write and a subsequent read to the same
// address are applied in arrival order at the controller.
func TestWriteThenReadOrdering(t *testing.T) {
	r := newRig(t, 1, 0)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	rec := &recorder{}
	lane := r.m.LaneID(0, 0, 0)
	r.eng.SetActor(lane, rec)
	cont := udweave.EvwExisting(lane, 0, 1)
	r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMWrite, 0, udweave.IGNRCONT, va, 77)
	r.eng.Post(1, r.m.MemCtrlID(0), arch.KindDRAMRead, 0, cont, va, 1)
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ops[0][0] != 77 {
		t.Fatalf("read returned %d, want 77", rec.ops[0][0])
	}
}

// TestFetchAddVariants: fetch-adds return the prior value and apply
// atomically in arrival order.
func TestFetchAddVariants(t *testing.T) {
	r := newRig(t, 1, 0)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	rec := &recorder{}
	lane := r.m.LaneID(0, 0, 0)
	r.eng.SetActor(lane, rec)
	cont := udweave.EvwExisting(lane, 0, 1)
	r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMFetchAdd, 0, cont, va, 5)
	r.eng.Post(1, r.m.MemCtrlID(0), arch.KindDRAMFetchAdd, 0, cont, va, 7)
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ops[0][0] != 0 || rec.ops[1][0] != 5 {
		t.Fatalf("priors %v", rec.ops)
	}
	if got := r.gas.ReadU64(va); got != 12 {
		t.Fatalf("final %d", got)
	}
}

// TestIgnoredContinuationSendsNothing: writes without a continuation must
// not generate responses.
func TestIgnoredContinuationSendsNothing(t *testing.T) {
	r := newRig(t, 1, 0)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMWrite, 0, udweave.IGNRCONT, va, 9)
	stats, err := r.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sends != 0 {
		t.Fatalf("%d sends for an unacknowledged write", stats.Sends)
	}
	if r.gas.ReadU64(va) != 9 {
		t.Fatal("write not applied")
	}
}

// TestStatsAccountingMixedKinds pins the engine's DRAM accounting under a
// mix of request kinds: exact DRAMReads/DRAMWrites/DRAMBytes. Fetch-adds
// are read-modify-writes and must be counted as writes.
func TestStatsAccountingMixedKinds(t *testing.T) {
	r := newRig(t, 1, 0)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	lane := r.m.LaneID(0, 0, 0)
	r.eng.SetActor(lane, &recorder{})
	cont := udweave.EvwExisting(lane, 0, 1)

	// 3 reads of 2 words, 2 writes of 3 data words, 3 fetch-adds.
	for i := 0; i < 3; i++ {
		r.eng.Post(arch.Cycles(i), r.m.MemCtrlID(0), arch.KindDRAMRead, 0, cont, va, 2)
	}
	for i := 0; i < 2; i++ {
		r.eng.Post(arch.Cycles(10+i), r.m.MemCtrlID(0), arch.KindDRAMWrite, 0, cont,
			va+64*uint64(i), 1, 2, 3)
	}
	r.eng.Post(20, r.m.MemCtrlID(0), arch.KindDRAMFetchAdd, 0, cont, va, 5)
	r.eng.Post(21, r.m.MemCtrlID(0), arch.KindDRAMFetchAdd, 0, cont, va+8, 1)
	r.eng.Post(22, r.m.MemCtrlID(0), arch.KindDRAMFetchAdd, 0, cont, va+8, 2)

	stats, err := r.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DRAMReads != 3 {
		t.Errorf("DRAMReads = %d, want 3", stats.DRAMReads)
	}
	// 2 writes + 3 fetch-adds (read-modify-writes).
	if stats.DRAMWrites != 5 {
		t.Errorf("DRAMWrites = %d, want 5 (fetch-adds must count)", stats.DRAMWrites)
	}
	// reads 3x2x8 + writes 2x3x8 + fetch-adds 3x16 (read-modify-write).
	want := int64(3*2*8 + 2*3*8 + 3*16)
	if stats.DRAMBytes != want {
		t.Errorf("DRAMBytes = %d, want %d", stats.DRAMBytes, want)
	}
}

// TestWriteWithoutAddressPanics is the regression test for the unvalidated
// n = NOps-1 in the write path: a zero-operand write used to flow n = -1
// and *negative* bytes into the accounting; it must panic like a malformed
// read does.
func TestWriteWithoutAddressPanics(t *testing.T) {
	r := newRig(t, 1, 0)
	r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMWrite, 0, udweave.IGNRCONT)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-operand DRAM write did not panic")
		}
	}()
	r.eng.Run()
}

// TestAckOnlyWrite: a write carrying only the address is legal — it stores
// nothing and accounts zero bytes, but still acknowledges.
func TestAckOnlyWrite(t *testing.T) {
	r := newRig(t, 1, 0)
	va, _ := r.gas.DRAMmalloc(4096, 0, 1, 4096)
	rec := &recorder{}
	lane := r.m.LaneID(0, 0, 0)
	r.eng.SetActor(lane, rec)
	r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMWrite, 0, udweave.EvwExisting(lane, 0, 1), va)
	stats, err := r.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.times) != 1 {
		t.Fatalf("%d acks, want 1", len(rec.times))
	}
	if stats.DRAMBytes != 0 {
		t.Fatalf("DRAMBytes = %d for an ack-only write, want 0", stats.DRAMBytes)
	}
	if stats.DRAMWrites != 1 {
		t.Fatalf("DRAMWrites = %d, want 1", stats.DRAMWrites)
	}
}

// TestPerNodeBandwidthIndependent: two nodes' controllers serve their own
// queues; traffic to node 0 does not delay node 1.
func TestPerNodeBandwidthIndependent(t *testing.T) {
	r := newRig(t, 2, 8)
	// Region striped one block per node.
	va, _ := r.gas.DRAMmalloc(2*4096, 0, 2, 4096)
	rec0 := &recorder{}
	rec1 := &recorder{}
	l0, l1 := r.m.LaneID(0, 0, 0), r.m.LaneID(1, 0, 0)
	r.eng.SetActor(l0, rec0)
	r.eng.SetActor(l1, rec1)
	// Flood node 0.
	for i := 0; i < 100; i++ {
		r.eng.Post(0, r.m.MemCtrlID(0), arch.KindDRAMRead, 0,
			udweave.EvwExisting(l0, 0, 1), va, 8)
	}
	// One read on node 1 (second block of the region).
	r.eng.Post(0, r.m.MemCtrlID(1), arch.KindDRAMRead, 0,
		udweave.EvwExisting(l1, 0, 1), va+4096, 1)
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec1.times) != 1 {
		t.Fatal("node 1 read lost")
	}
	if rec1.times[0] > rec0.times[5] {
		t.Fatalf("node 1 (%d) queued behind node 0 traffic (%d)", rec1.times[0], rec0.times[5])
	}
}
