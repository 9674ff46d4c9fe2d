package updown_test

// Machine-level checkpoint/restore: a run paused mid-flight, serialized
// and rebuilt into a freshly assembled machine must finish with the same
// Stats and application output as a run that was never interrupted —
// with metrics, tracing, fault injection and the resilience config all
// enabled. Mismatched programs and machines must be rejected.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"updown"
	"updown/internal/arch"
	"updown/internal/fault"
	"updown/internal/kvmsr"
	"updown/internal/metrics"
	"updown/internal/udweave"
)

// relayState is per-thread state; laneTally accumulates per-lane output
// in a lane slot. Both travel through the checkpoint via gob.
type relayState struct{ Sum, Hops uint64 }
type laneTally struct{ Seen, Sum uint64 }

func init() {
	// gob numbers a type the first time a process encodes it, and a lane
	// payload carries that number: encoding both here, in this order, makes
	// every checkpoint this package takes the same bytes whichever test
	// runs first (TestCheckpointFormatPinned relies on it).
	for _, v := range []any{&relayState{}, &laneTally{}} {
		gob.Register(v)
		if err := gob.NewEncoder(io.Discard).Encode(&v); err != nil {
			panic(err)
		}
	}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const relayNodes = 3

// buildRelay assembles the test machine: a relay workload hopping across
// nodes on a mix of reliable and unreliable sends, under a fault plan
// with drops, dups, delays, a lane stall and a degraded node, with
// metrics, tracing and a resilience config enabled. extraHandler grows
// the program (for the shape-guard test); post seeds the workload.
func buildRelay(t *testing.T, post, extraHandler bool) (*updown.Machine, updown.VA, udweave.Slot[laneTally]) {
	t.Helper()
	a := arch.DefaultMachine(relayNodes)
	m, err := updown.New(updown.Config{
		Nodes:   relayNodes,
		Shards:  relayNodes,
		Metrics: &metrics.Options{},
		Trace:   &metrics.TraceOptions{},
		Fault: &fault.Plan{
			Seed: 99,
			Rules: []fault.MsgRule{{
				SrcNode: fault.AnyNode, DstNode: fault.AnyNode,
				DropProb: 0.05, DupProb: 0.10, DelayProb: 0.20, DelayCycles: 4000,
			}},
			Stalls:   []fault.Stall{{Lane: a.LaneID(1, 0, 3), At: 0, For: 9000}},
			Degrades: []fault.Degrade{{Node: 2, InjFactor: 2, DRAMFactor: 3, From: 2000}},
		},
		Resilience: &kvmsr.Resilience{},
	})
	if err != nil {
		t.Fatal(err)
	}
	va, err := m.GAS.DRAMmalloc(4096*relayNodes, 0, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tally := udweave.NewSlot[laneTally](m.Prog)
	var relay updown.Label
	relay = m.Prog.Define("relay", func(c *updown.Ctx) {
		st, _ := c.State().(*relayState)
		if st == nil {
			st = &relayState{}
			c.SetState(st)
		}
		st.Sum += c.Op(0)
		st.Hops++
		tl := tally.Get(c)
		tl.Seen++
		tl.Sum += c.Op(0)
		c.Cycles(25)
		h := mix(c.Op(0) ^ uint64(c.NetworkID())<<24)
		c.DRAMFetchAdd(va+(h%64)*8, c.Op(0), updown.IGNRCONT)
		ttl := c.Op(1)
		if ttl == 0 {
			if st.Hops&1 == 1 {
				return // yield: leave a live thread whose state must survive
			}
			c.YieldTerminate()
			return
		}
		node := int(h % relayNodes)
		lane := int(h>>8) % 64
		nxt := updown.EvwNew(c.Program().M.LaneID(node, 0, lane), relay)
		if h&2 == 0 {
			c.SendEventU(nxt, updown.IGNRCONT, h%1000, ttl-1)
		} else {
			c.SendEvent(nxt, updown.IGNRCONT, h%1000, ttl-1)
		}
		c.YieldTerminate()
	})
	if extraHandler {
		m.Prog.Define("extra", func(c *updown.Ctx) { c.YieldTerminate() })
	}
	if post {
		for r := uint64(0); r < 6; r++ {
			h := mix(1000 + r)
			id := a.LaneID(int(h%relayNodes), 0, int(h>>8)%64)
			m.Start(updown.EvwNew(id, relay), h%500, 40)
		}
		// One root on the stalled lane, so the stall provably fires.
		m.Start(updown.EvwNew(a.LaneID(1, 0, 3), relay), 7, 40)
	}
	return m, va, tally
}

// relayOutput fingerprints the application-visible output: the lane
// tallies of every lane plus a slice of the DRAM accumulators.
func relayOutput(m *updown.Machine, va updown.VA, tally udweave.Slot[laneTally]) string {
	var buf bytes.Buffer
	for node := 0; node < relayNodes; node++ {
		for lane := 0; lane < 64; lane++ {
			id := m.Arch.LaneID(node, 0, lane)
			if tl := tally.Peek(m.Engine.PeekActor(id)); tl != nil {
				fmt.Fprintf(&buf, "%d:%d/%d ", id, tl.Seen, tl.Sum)
			}
		}
	}
	for i := uint64(0); i < 64; i++ {
		fmt.Fprintf(&buf, "%d ", m.GAS.ReadU64(va+i*8))
	}
	return buf.String()
}

func TestMachineCheckpointRoundTrip(t *testing.T) {
	ref, refVA, tally := buildRelay(t, true, false)
	refStats, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Events < 50 || refStats.Faults.Dropped == 0 || refStats.Faults.Stalled == 0 {
		t.Fatalf("workload too tame to be a useful fixture: %+v", refStats)
	}
	refOut := relayOutput(ref, refVA, tally)

	for _, pause := range []updown.Cycles{0, 2500, 20000} {
		t.Run(fmt.Sprintf("pause=%d", pause), func(t *testing.T) {
			m, _, _ := buildRelay(t, true, false)
			if _, err := m.RunUntil(pause); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			f, fVA, _ := buildRelay(t, false, false)
			if err := f.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			stats, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats != refStats {
				t.Errorf("stats diverge:\n got %+v\nwant %+v", stats, refStats)
			}
			if out := relayOutput(f, fVA, tally); out != refOut {
				t.Errorf("application output diverges:\n got %s\nwant %s", out, refOut)
			}
		})
	}
}

func TestMachineRestoreGuards(t *testing.T) {
	m, _, _ := buildRelay(t, true, false)
	if _, err := m.RunUntil(2500); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// A machine whose program registered an extra handler is a different
	// program; the handler-count guard must reject it.
	wrongProg, _, _ := buildRelay(t, false, true)
	if err := wrongProg.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore into a machine with a different program was accepted")
	}

	// A machine of a different size fails the engine's architecture
	// validation with the typed error.
	wrongArch, err := updown.New(updown.Config{Nodes: relayNodes + 1})
	if err != nil {
		t.Fatal(err)
	}
	// Match the program shape so the earlier guard passes and the engine
	// guard is the one exercised.
	udweave.NewSlot[laneTally](wrongArch.Prog)
	wrongArch.Prog.Define("relay", func(c *updown.Ctx) {})
	rerr := wrongArch.Restore(bytes.NewReader(buf.Bytes()))
	var re *updown.RestoreError
	if !errors.As(rerr, &re) || re.Kind != updown.RestoreMachineMismatch {
		t.Errorf("got %v, want RestoreMachineMismatch", rerr)
	}

	// Garbage and a truncated magic are not checkpoints; a stream that ends
	// after the magic, or inside the version word, is a corrupt one.
	for data, kind := range map[string]updown.RestoreErrorKind{
		"not a checkpoint at all": updown.RestoreBadMagic,
		"UDMCH":                   updown.RestoreBadMagic,
		"UDMCHKPT":                updown.RestoreCorrupt,
		"UDMCHKPT\x02\x00":        updown.RestoreCorrupt,
	} {
		if err := m.Restore(strings.NewReader(data)); !errors.As(err, &re) || re.Kind != kind {
			t.Errorf("%q: got %v, want %v", data, err, kind)
		}
	}
}

// fuzzArch builds FuzzRestore's machine: two nodes of one 4-lane
// accelerator.
func fuzzArch(t testing.TB) *updown.Machine {
	t.Helper()
	ar := arch.DefaultMachine(2)
	ar.AccelsPerNode, ar.LanesPerAccel = 1, 4
	m, err := updown.New(updown.Config{Arch: &ar, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fuzzMachine assembles FuzzRestore's target on fuzzArch: a live region and
// a freed one (so the GAS section carries a free list), and a hop program
// whose threads keep gob-encoded state, whose lanes count hops in a slot
// and whose odd hops stay live.
func fuzzMachine(t testing.TB) (*updown.Machine, updown.Label) {
	t.Helper()
	m := fuzzArch(t)
	va, err := m.GAS.DRAMmalloc(64*8, 0, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.GAS.SetOwner(1)
	if _, err := m.GAS.DRAMmalloc(32*8, 0, 2, 256); err != nil {
		t.Fatal(err)
	}
	m.GAS.SetOwner(prev)
	m.GAS.FreeOwner(1)
	tally := udweave.NewSlot[laneTally](m.Prog)
	var hop updown.Label
	hop = m.Prog.Define("hop", func(c *updown.Ctx) {
		st, _ := c.State().(*relayState)
		if st == nil {
			st = &relayState{}
			c.SetState(st)
		}
		st.Sum += c.Op(0)
		st.Hops++
		tally.Get(c).Seen++
		c.Cycles(20)
		c.DRAMFetchAdd(va+c.Op(0)%64*8, 1, updown.IGNRCONT)
		if ttl := c.Op(1); ttl > 0 {
			h := mix(c.Op(0))
			c.SendEvent(updown.EvwNew(updown.NetworkID(h%8), hop), updown.IGNRCONT, h%1000, ttl-1)
		}
		if st.Hops&1 == 0 {
			c.YieldTerminate()
		}
	})
	return m, hop
}

// fuzzSeed is FuzzRestore's seed: a checkpoint of fuzzMachine paused
// mid-run, with messages in flight and live threads.
func fuzzSeed(t testing.TB) []byte {
	m, hop := fuzzMachine(t)
	m.Start(updown.EvwNew(0, hop), 1, 30)
	m.Start(updown.EvwNew(5, hop), 2, 30)
	if _, err := m.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	var seed bytes.Buffer
	if err := m.Checkpoint(&seed); err != nil {
		t.Fatal(err)
	}
	return seed.Bytes()
}

// TestCheckpointFormatPinned: the seed checkpoint is byte-equal to
// testdata/checkpoint/seed.ckpt, written by the encoder the current format
// was first defined with, so a change to any encoder that moves a byte
// fails here.
func TestCheckpointFormatPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/checkpoint/seed.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got := fuzzSeed(t); !bytes.Equal(got, want) {
		t.Fatalf("the seed checkpoint is %d bytes and differs from the pinned %d-byte one", len(got), len(want))
	}
}

// FuzzRestore feeds arbitrary bytes to Machine.Restore: it never panics,
// every error is a *RestoreError, and every error leaves the machine
// exactly as it was (its checkpoint bytes unchanged). The seed is
// fuzzSeed; testdata/fuzz/FuzzRestore holds that checkpoint with one count
// word changed (TestRestoreReproducers lists them).
func FuzzRestore(f *testing.F) {
	seed := fuzzSeed(f)
	if fresh, _ := fuzzMachine(f); fresh.Restore(bytes.NewReader(seed)) != nil {
		f.Fatal("the seed checkpoint does not restore")
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _ := fuzzMachine(t)
		var before, after bytes.Buffer
		if err := m.Checkpoint(&before); err != nil {
			t.Fatal(err)
		}
		err := m.Restore(bytes.NewReader(data))
		if err == nil {
			return
		}
		var re *updown.RestoreError
		if !errors.As(err, &re) {
			t.Fatalf("untyped restore error %T: %v", err, err)
		}
		if err := m.Checkpoint(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("rejected (%v) after modifying the machine", err)
		}
	})
}

// TestRestoreReproducers: each checked-in FuzzRestore input announces a
// count or length no stream of its size can back — 2^36 heap messages,
// 2^32 free extents, regions or payload bytes, a 2^33-word node store, a
// region spanning 2^62 nodes from node 2^62, a hint in the last DRAM
// controller's payload that it does not hold. Most used to be allocated
// up front (a fatal out-of-memory error, short of a host with that much
// memory) or to panic in makeslice; the hint was found only after the
// engine state had been installed. Restore must reject every one as a
// corrupt stream with the machine untouched.
func TestRestoreReproducers(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzRestore/*")
	if err != nil || len(files) < 7 {
		t.Fatalf("%d reproducers (%v)", len(files), err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte fuzz input", name)
		}
		m, _ := fuzzMachine(t)
		var before, after bytes.Buffer
		if err := m.Checkpoint(&before); err != nil {
			t.Fatal(err)
		}
		var re *updown.RestoreError
		if err := m.Restore(strings.NewReader(data)); !errors.As(err, &re) || re.Kind != updown.RestoreCorrupt {
			t.Errorf("%s: got %v, want a corrupt-stream RestoreError", filepath.Base(name), err)
		}
		if err := m.Checkpoint(&after); err != nil || !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%s: the rejected restore modified the machine", filepath.Base(name))
		}
	}
}

// TestRestoreRejectsSlotOfAnotherType: a checkpoint of a program that
// keeps a *relayState in the slot where fuzzMachine keeps a *laneTally has
// the same handler and slot counts, but is another program's state. Restore
// must reject it as a shape mismatch and leave the machine as it was, so
// the next run cannot meet a value of the wrong type.
func TestRestoreRejectsSlotOfAnotherType(t *testing.T) {
	src := fuzzArch(t)
	relay := udweave.NewSlot[relayState](src.Prog)
	hop := src.Prog.Define("hop", func(c *updown.Ctx) {
		relay.Get(c).Hops++
		c.YieldTerminate()
	})
	src.Start(updown.EvwNew(0, hop), 1, 0)
	if _, err := src.Run(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := src.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	m, hop := fuzzMachine(t)
	var before, after bytes.Buffer
	if err := m.Checkpoint(&before); err != nil {
		t.Fatal(err)
	}
	var re *updown.RestoreError
	if err := m.Restore(bytes.NewReader(ckpt.Bytes())); !errors.As(err, &re) || re.Kind != updown.RestoreShapeMismatch {
		t.Fatalf("got %v, want a shape-mismatch RestoreError", err)
	}
	if err := m.Checkpoint(&after); err != nil || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the rejected restore modified the machine")
	}
	m.Start(updown.EvwNew(0, hop), 1, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
