package kvmsr_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"updown"
	"updown/internal/arch"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// fwLane is what a FirstWins test reducer keeps on its lane: the value of
// the first tuple of each key to arrive, and how many kv_reduce tasks ran
// per (the lane that handed the tuple over, key).
type fwLane struct {
	first map[uint64]uint64
	runs  map[[2]uint64]int
}

// fwResult is one run of fwJob.
type fwResult struct {
	// state renders every owner's first-wins map, lane by lane.
	state  string
	runs   int  // kv_reduce tasks run, over every lane
	repeat bool // some hand-off lane handed some key over twice
	done   []updown.Cycles
	term   kvmsr.TerminationState
	totals kvmsr.TerminationTotals
	stats  updown.Stats
}

const fwHub = 7777

// fwKeys are the hub and 18 other keys, no two of them in one slot of the
// FirstWins table: a lane's table then forgets none of them, and every
// repeat a lane hands over is one it must retire.
var fwKeys = func() []uint64 {
	keys := []uint64{fwHub}
	used := map[uint64]bool{kvmsr.HandOffSlotForTest(fwHub): true}
	for k := uint64(100); len(keys) < 19; k++ {
		if s := kvmsr.HandOffSlotForTest(k); !used[s] {
			used[s] = true
			keys = append(keys, k)
		}
	}
	return keys
}()

// fwRival shares fwHub's FirstWins table slot and its owner lane (so
// coalesced tuples of both reach the same distributors): a lane handing
// both over remembers only the last, so it hands the other over again.
var fwRival = func() uint64 {
	h, ls := kvmsr.Hash{}, kvmsr.LaneSet{Count: 4 * 2 * 8} // fwJob's lanes
	k := uint64(fwHub + 1)
	for kvmsr.HandOffSlotForTest(k) != kvmsr.HandOffSlotForTest(fwHub) || h.Lane(k, ls) != h.Lane(fwHub, ls) {
		k++
	}
	return k
}()

// fwJob runs three launches of one invocation on a machine of mode.nodes
// nodes (4 if unset) of 2 x 8 lanes each: map task k emits the hot keys,
// fwKeys[1+k%13] and fwKeys[14+k%5], each with value 3·key+1. The reducer
// is first-wins — the first tuple of a key records its value through a
// DRAM round trip, later ones only ReduceDone — which is what
// Spec.FirstWins declares when firstWins is set. It fails unless every
// kv_reduce sees exactly its tuple [key, 3·key+1].
func fwJob(t *testing.T, mode termMode, hot []uint64, firstWins bool, shards int) fwResult {
	t.Helper()
	nodes := mode.nodes
	if nodes == 0 {
		nodes = 4
	}
	ar := arch.DefaultMachine(nodes)
	ar.AccelsPerNode, ar.LanesPerAccel = 2, 8
	cfg := updown.Config{Arch: &ar, Shards: shards, MaxTime: 1 << 36}
	if mode.coalesce {
		cfg.Coalesce = &kvmsr.Coalesce{}
	}
	if mode.resilient {
		cfg.Resilience = &kvmsr.Resilience{}
	}
	m, err := updown.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := m.GAS.DRAMmalloc(8, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	lanes := kvmsr.AllLanes(m.Arch)
	keys := []uint64{300, 120, 300}
	var inv *kvmsr.Invocation
	mapEv := m.Prog.Define("fw_map", func(c *updown.Ctx) {
		k := c.Op(0)
		c.Cycles(int(k%11) + 4)
		for _, key := range append(hot[:len(hot):len(hot)], fwKeys[1+k%13], fwKeys[14+k%5]) {
			inv.Emit(c, key, 3*key+1)
		}
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	var recorded udweave.Label
	fw := udweave.NewSlot[fwLane](m.Prog)
	reduceEv := m.Prog.Define("fw_reduce", func(c *updown.Ctx) {
		st := fw.Get(c)
		if st.first == nil {
			st.first, st.runs = map[uint64]uint64{}, map[[2]uint64]int{}
		}
		key := c.Op(0)
		if c.NOps() != 2 || c.Op(1) != 3*key+1 {
			t.Errorf("kv_reduce saw operands %v, want [key, 3·key+1]", c.Ops())
		}
		st.runs[[2]uint64{uint64(c.Src()), key}]++
		c.Cycles(6)
		if _, seen := st.first[key]; seen {
			inv.ReduceDone(c)
			c.YieldTerminate()
			return
		}
		st.first[key] = c.Op(1)
		c.DRAMFetchAdd(scratch, 1, c.ContinueTo(recorded))
	})
	recorded = m.Prog.Define("fw_recorded", func(c *updown.Ctx) {
		inv.ReduceDone(c)
		c.YieldTerminate()
	})
	var res fwResult
	var done udweave.Label
	done = m.Prog.Define("fw_done", func(c *updown.Ctx) {
		res.done = append(res.done, c.Now())
		if n := len(res.done); n < len(keys) {
			inv.LaunchWithArg(c, keys[n], uint64(n), c.ContinueTo(done))
			return
		}
		c.YieldTerminate()
	})
	inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "fw", MapEvent: mapEv, ReduceEvent: reduceEv, Lanes: lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce, FirstWins: firstWins})
	m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(lanes.First, done), keys[0], 0)
	if res.stats, err = m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(res.done) != len(keys) {
		t.Fatalf("%d of %d launches completed", len(res.done), len(keys))
	}
	var b strings.Builder
	for lane := lanes.First; lane < lanes.End(); lane++ {
		st := fw.Peek(m.Engine.PeekActor(lane))
		if st == nil {
			continue
		}
		owned := make([]uint64, 0, len(st.first))
		for key := range st.first {
			owned = append(owned, key)
		}
		sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
		fmt.Fprintf(&b, "%d:", lane)
		for _, key := range owned {
			fmt.Fprintf(&b, " %d=%d", key, st.first[key])
		}
		b.WriteString("\n")
		for _, n := range st.runs {
			res.runs += n
			res.repeat = res.repeat || n > 1
		}
	}
	res.state = b.String()
	res.term = inv.TerminationState(m.LanePeek())
	res.totals = inv.TerminationTotals(m.LanePeek())
	return res
}

// fwModes are the shuffle modes every FirstWins test runs in.
var fwModes = []termMode{
	{name: "classic"},
	{name: "coalesced", coalesce: true},
	{name: "resilient", resilient: true},
	{name: "coalesced+resilient", coalesce: true, resilient: true},
}

// fwCheck runs fwJob over hot with and without FirstWins at every shard
// count and requires what FirstWins must keep whatever the keys: every
// owner ends with the state it has without FirstWins, and the termination
// sums balance with the retired tuples counted as reduced (E = kv_reduce
// tasks run + retired), some retired. It returns whether any hand-off lane
// handed some key over twice under FirstWins.
func fwCheck(t *testing.T, mode termMode, hot []uint64) (repeat bool) {
	plain := fwJob(t, mode, hot, false, 1)
	if !plain.repeat || plain.totals.Retired != 0 {
		t.Fatalf("without FirstWins: repeats %v, %d retired; the test is vacuous", plain.repeat, plain.totals.Retired)
	}
	acrossShards(t, func(t *testing.T, shards int) string {
		r := fwJob(t, mode, hot, true, shards)
		repeat = r.repeat
		if r.state != plain.state {
			t.Errorf("owner state differs from the run without FirstWins:\n got %s\nwant %s", r.state, plain.state)
		}
		e := r.term.E
		want := kvmsr.TerminationState{Reduced: e, Reported: e, R: e, E: e, Retired: e - uint64(r.runs)}
		if r.term != want || e != plain.term.E || r.totals.Retired != want.Retired || want.Retired == 0 {
			t.Errorf("termination state %+v (retired total %d), want %+v with the %d emits of the run without FirstWins and some retired",
				r.term, r.totals.Retired, want, plain.term.E)
		}
		return fmt.Sprintf("%v %v %+v %+v %+v", r.repeat, r.done, r.term, r.totals, r.stats)
	})
	return repeat
}

// Under Spec.FirstWins, in every shuffle mode and at every shard count, with
// no two keys in one table slot: the owner lane runs at most one kv_reduce
// per (hand-off lane, key) — without it the hub's owner runs several — and
// fwCheck's invariants hold.
func TestFirstWinsRetiresRepeatsAtHandOff(t *testing.T) {
	for _, mode := range fwModes {
		t.Run(mode.name, func(t *testing.T) {
			if fwCheck(t, mode, []uint64{fwHub}) {
				t.Error("an owner ran two reduces of one key handed over by one lane")
			}
		})
	}
}

// Two hot keys in one table slot thrash it: a lane handing both over
// forgets each in turn and hands it over again, so an owner runs repeat
// reduces FirstWins would have retired. That costs hand-offs, not
// correctness: fwCheck's invariants hold in every mode at every shard count.
func TestFirstWinsCollidingKeys(t *testing.T) {
	for _, mode := range fwModes {
		t.Run(mode.name, func(t *testing.T) {
			if !fwCheck(t, mode, []uint64{fwHub, fwRival}) {
				t.Error("no lane handed a key over twice: the colliding keys did not thrash the table")
			}
		})
	}
}

// On one node no tuple is bound for another node, so Coalesce buffers
// nothing and must change nothing: with and without FirstWins, a plain and
// a resilient run each give the same completions, statistics, termination
// totals and owner state as the same run under Coalesce.
func TestCoalesceNoOpOnOneNode(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		for _, firstWins := range []bool{false, true} {
			t.Run(fmt.Sprintf("resilient=%v/firstwins=%v", resilient, firstWins), func(t *testing.T) {
				run := func(coalesce bool) string {
					r := fwJob(t, termMode{nodes: 1, resilient: resilient, coalesce: coalesce}, []uint64{fwHub}, firstWins, 1)
					if firstWins && r.totals.Retired == 0 {
						t.Fatalf("nothing retired at hand-off: the FirstWins leg is vacuous")
					}
					return fmt.Sprintf("done=%v stats=%+v totals=%+v term=%+v runs=%d\n%s", r.done, r.stats, r.totals, r.term, r.runs, r.state)
				}
				if got, want := run(true), run(false); got != want {
					t.Errorf("Coalesce changed a one-node run:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// FirstWins needs an owner lane per key; ReduceAnyLane runs tuples anywhere.
func TestFirstWinsRejectsReduceAnyLane(t *testing.T) {
	m, _ := updown.New(updown.Config{Nodes: 1, Shards: 1})
	ev := m.Prog.Define("e", func(c *updown.Ctx) {})
	_, err := kvmsr.New(m.Prog, kvmsr.Spec{Name: "x", MapEvent: ev, ReduceEvent: ev, Lanes: kvmsr.AllLanes(m.Arch),
		Coalesce: &kvmsr.Coalesce{}, ReduceAnyLane: true, FirstWins: true})
	if err == nil || !strings.Contains(err.Error(), "FirstWins") {
		t.Fatalf("FirstWins with ReduceAnyLane: got %v, want an error naming FirstWins", err)
	}
}
