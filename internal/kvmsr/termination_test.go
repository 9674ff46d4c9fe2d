package kvmsr_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"updown"
	"updown/internal/apps/bfs"
	"updown/internal/apps/tc"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
	"updown/internal/udweave"
)

// termShards are the shard counts every termination test must agree
// across, cycle for cycle.
var termShards = []int{1, 2, 3, 7}

// acrossShards runs scenario at every shard count of termShards and fails
// unless the summaries (completion cycles, sim.Stats, protocol counters)
// are identical.
func acrossShards(t *testing.T, scenario func(t *testing.T, shards int) string) {
	t.Helper()
	ref := scenario(t, termShards[0])
	for _, shards := range termShards[1:] {
		if got := scenario(t, shards); got != ref {
			t.Fatalf("shards=%d diverged from shards=%d:\n got %s\nwant %s", shards, termShards[0], got, ref)
		}
	}
}

// termMode is one shuffle configuration of the generic job.
type termMode struct {
	name            string
	coalesce        bool
	resilient       bool
	anyLane         bool // Spec.ReduceAnyLane
	pbmw            bool // termPBMW as the map binding, else Block
	nodes           int
	first, laneSpan int // lane set; laneSpan 0 = the whole machine
	// translates, when nonzero, runs that many chains of rounds at once,
	// chain k on the lane set shifted up by k*laneSpan (LaunchAt).
	translates int
	// delaySeed, when nonzero, seeds a delay-only fault plan over both
	// event classes: no message is lost, but any two may arrive out of
	// order.
	delaySeed uint64
}

// delayPlan delays 30% of event messages, reliable and unreliable, by up
// to two cross-node hops each, dropping none.
func delayPlan(seed uint64) *fault.Plan {
	return &fault.Plan{Seed: seed, Rules: []fault.MsgRule{{
		Kinds:   1<<arch.KindEvent | 1<<arch.KindEventU,
		SrcNode: fault.AnyNode, DstNode: fault.AnyNode, DelayProb: 0.3, DelayCycles: 2000}}}
}

// termRound is one launch of the generic job: keys map tasks, each emitting
// emits tuples; hold > 0 parks every map task that long between its emits
// and its Return (the task yields, so the lane keeps reducing meanwhile).
type termRound struct {
	keys  uint64
	emits uint64
	hold  updown.Cycles
}

// termChain is what one chain of launches, on one translate of the lane
// set, saw complete.
type termChain struct {
	done   []updown.Cycles // completion cycle of each launch
	deltas []uint64        // per-launch emit counts the completions reported
	adds   []uint64        // per-launch ReduceDoneAdd sums the completions reported
	cum    uint64          // last cumulative emit count reported
}

type termResult struct {
	chains []termChain // one per translate run, the lane set's own first
	sum    uint64      // reduce-side sum of every value
	stats  updown.Stats
	totals kvmsr.TerminationTotals
}

func (r termResult) summary() string {
	return fmt.Sprintf("chains=%+v stats=%+v totals=%+v", r.chains, r.stats, r.totals)
}

const termCounters = 64

// termPBMW is the dynamic map binding the PBMW legs run: half of each
// lane's share up front, the rest granted eight keys at a time.
var termPBMW = kvmsr.PBMW{ChunkSize: 8}

// termKeyStep spreads termJob's keys: each is a multiple of it, and no
// value, pack header or emit ID of the job is.
const termKeyStep = 2654435761

// termJob chains rounds through one invocation: map task k emits
// (hash-spread key, k+1) tuples, reduces fetch-add the value into one of
// termCounters words and, in the second event of the task, ReduceDoneAdd
// it; the completion relaunches the next round from the same thread. It
// fails unless every kv_reduce sees exactly its tuple, key first (no pack
// header or emit ID left on it), and the protocol's counters are conserved
// once the machine has quiesced.
func termJob(t *testing.T, mode termMode, shards int, rounds []termRound) termResult {
	t.Helper()
	cfg := updown.Config{Nodes: mode.nodes, Shards: shards, MaxTime: 1 << 36}
	if mode.delaySeed != 0 {
		cfg.Fault = delayPlan(mode.delaySeed)
	}
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
	counters, err := m.GAS.DRAMmalloc(termCounters*8, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	lanes := kvmsr.AllLanes(m.Arch)
	if mode.laneSpan > 0 {
		lanes = kvmsr.LaneSet{First: updown.NetworkID(mode.first), Count: mode.laneSpan}
	}
	var inv *kvmsr.Invocation
	res := termResult{chains: make([]termChain, max(1, mode.translates))}
	type mapState struct{ cont uint64 }
	var held udweave.Label
	mapEv := m.Prog.Define("term_map", func(c *updown.Ctx) {
		k, r := c.Op(0), rounds[c.Op(1)]
		c.Cycles(int(k%37) + 5)
		for i := uint64(0); i < r.emits; i++ {
			inv.Emit(c, (k*r.emits+i)*termKeyStep, k+1)
		}
		if r.hold > 0 {
			c.SetState(&mapState{cont: c.Cont()})
			c.SendEventAfter(r.hold, c.ContinueTo(held), udweave.IGNRCONT)
			return
		}
		inv.Return(c, c.Cont())
		c.YieldTerminate()
	})
	held = m.Prog.Define("term_map_held", func(c *updown.Ctx) {
		inv.Return(c, c.State().(*mapState).cont)
		c.YieldTerminate()
	})
	var ack udweave.Label
	reduceEv := m.Prog.Define("term_reduce", func(c *updown.Ctx) {
		if c.NOps() != 2 || c.Op(0)%termKeyStep != 0 {
			t.Errorf("kv_reduce saw operands %v, want [key, value] with the key a multiple of %d", c.Ops(), termKeyStep)
		}
		c.Cycles(8)
		c.SetState(c.Op(1))
		c.DRAMFetchAdd(counters+(c.Op(0)%termCounters)*8, c.Op(1), c.ContinueTo(ack))
	})
	ack = m.Prog.Define("term_reduce_ack", func(c *updown.Ctx) {
		inv.ReduceDoneAdd(c, c.State().(uint64))
		c.YieldTerminate()
	})
	var done udweave.Label
	// A chain's completions reach its translate's first lane, its master.
	done = m.Prog.Define("term_done", func(c *updown.Ctx) {
		ch := &res.chains[lanes.Index(c.NetworkID())/lanes.Count]
		ch.done = append(ch.done, c.Now())
		ch.deltas = append(ch.deltas, c.Op(0))
		ch.adds = append(ch.adds, c.Op(2))
		ch.cum = c.Op(1)
		if n := len(ch.done); n < len(rounds) {
			inv.LaunchAt(c, c.NetworkID(), rounds[n].keys, uint64(n), c.ContinueTo(done))
			return
		}
		c.YieldTerminate()
	})
	kick := m.Prog.Define("term_kick", func(c *updown.Ctx) {
		inv.LaunchAt(c, c.NetworkID(), rounds[0].keys, 0, c.ContinueTo(done))
	})
	spec := kvmsr.Spec{Name: "term", MapEvent: mapEv, ReduceEvent: reduceEv, Lanes: lanes,
		Resilience: m.Resilience, Coalesce: m.Coalesce, ReduceAnyLane: mode.anyLane}
	if mode.pbmw {
		spec.MapBinding = termPBMW
	}
	inv = kvmsr.MustNew(m.Prog, spec)
	if mode.translates == 0 {
		m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(lanes.First, done), rounds[0].keys, 0)
	}
	for k := 0; k < mode.translates; k++ {
		m.Start(updown.EvwNew(lanes.First+updown.NetworkID(k*lanes.Count), kick))
	}
	if res.stats, err = m.Run(); err != nil {
		t.Fatal(err)
	}
	var emits uint64
	for k, ch := range res.chains {
		if len(ch.done) != len(rounds) {
			t.Fatalf("translate %d: %d of %d launches completed", k, len(ch.done), len(rounds))
		}
		emits += ch.cum
	}
	for i := uint64(0); i < termCounters; i++ {
		res.sum += m.GAS.ReadU64(counters + i*8)
	}
	res.totals = inv.TerminationTotals(m.LanePeek())
	checkConserved(t, inv, m, emits, res.sum)
	if out := inv.Outstanding(m.LanePeek()); out != 0 {
		t.Fatalf("%d emits still unacked after quiescence", out)
	}
	return res
}

// roundSum is the reduce-side total of one round; wantSum is the rounds'
// total.
func roundSum(r termRound) uint64 { return r.emits * r.keys * (r.keys + 1) / 2 }

func wantSum(rounds []termRound) uint64 {
	var s uint64
	for _, r := range rounds {
		s += roundSum(r)
	}
	return s
}

// checkConserved asserts the protocol's conservation law at quiescence:
// every lane's reduces finished and reported, the masters' R and E both
// summing to the emits the completions reported, their S to the lanes'
// ReduceDoneAdd total added, nothing armed or parked.
func checkConserved(t *testing.T, inv *kvmsr.Invocation, m *updown.Machine, emits, added uint64) {
	t.Helper()
	s := inv.TerminationState(m.LanePeek())
	if want := (kvmsr.TerminationState{Reduced: emits, Reported: emits, R: emits, E: emits, Added: added, S: added}); s != want {
		t.Fatalf("not conserved at quiescence: %+v, want %+v", s, want)
	}
}

// checkTermJob asserts what every run of the generic job must show: the
// reduce-side sum, in memory and in each completion's ReduceDoneAdd sum,
// one completion per launch in launch order on every translate, and one
// drain per node of the set and launch.
func checkTermJob(t *testing.T, mode termMode, rounds []termRound, r termResult) {
	t.Helper()
	if want := wantSum(rounds) * uint64(len(r.chains)); r.sum != want {
		t.Fatalf("reduce sum %d, want %d", r.sum, want)
	}
	for k, ch := range r.chains {
		for i, round := range rounds {
			if ch.adds[i] != roundSum(round) {
				t.Fatalf("translate %d: launch %d completed with sum %d, its reduces added %d: %v", k, i, ch.adds[i], roundSum(round), ch.adds)
			}
		}
		for i := 1; i < len(ch.done); i++ {
			if ch.done[i] <= ch.done[i-1] {
				t.Fatalf("translate %d: completions out of order: %v", k, ch.done)
			}
		}
	}
	if r.totals.Launches != uint64(len(rounds)*len(r.chains)) {
		t.Fatalf("launches = %d", r.totals.Launches)
	}
	nodes := uint64(mode.nodes)
	if mode.laneSpan > 0 {
		nodes = uint64(max(1, mode.laneSpan/2048))
	}
	if r.totals.NodeDrains != nodes*r.totals.Launches {
		t.Fatalf("want one drain per node and launch over %d nodes: %+v", nodes, r.totals)
	}
}

var termRounds = []termRound{{keys: 600, emits: 3}, {keys: 150, emits: 3}, {keys: 900, emits: 2}}

// At quiescence, in every shuffle mode and lane-set shape and after three
// relaunches, with and without ReduceAnyLane: sum over lanes of reduced =
// of reported = the master's R = E, with nothing armed or parked, and each
// node drains its lanes once per launch.
func TestTerminationConservation(t *testing.T) {
	shapes := []termMode{{nodes: 1}, {nodes: 2}, {nodes: 4}, {nodes: 1, first: 80, laneSpan: 16}}
	for _, mode := range []termMode{
		{name: "classic"},
		{name: "coalesced", coalesce: true},
		{name: "resilient", resilient: true},
		{name: "coalesced+resilient", coalesce: true, resilient: true},
		{name: "classic/anylane", anyLane: true},
		{name: "coalesced/anylane", coalesce: true, anyLane: true},
		{name: "resilient/anylane", resilient: true, anyLane: true},
		{name: "coalesced+resilient/anylane", coalesce: true, resilient: true, anyLane: true},
	} {
		for _, shape := range shapes {
			mode.nodes, mode.first, mode.laneSpan = shape.nodes, shape.first, shape.laneSpan
			mode := mode
			t.Run(fmt.Sprintf("%s/nodes=%d/lanes=%d", mode.name, mode.nodes, mode.laneSpan), func(t *testing.T) {
				acrossShards(t, func(t *testing.T, shards int) string {
					r := termJob(t, mode, shards, termRounds)
					checkTermJob(t, mode, termRounds, r)
					return r.summary()
				})
			})
		}
	}
	// Translates: several chains of launches of one invocation in flight at
	// once, each on its own shift of the lane set (what a point-query
	// engine's slots do), with its own master, tree and completions: a
	// slice of one node run three times side by side, and a two-node set
	// run twice, so coalesced packs cross nodes inside each translate.
	for _, mode := range []termMode{
		{name: "classic"},
		{name: "coalesced", coalesce: true},
		{name: "resilient", resilient: true},
		{name: "coalesced+resilient", coalesce: true, resilient: true},
	} {
		for _, shape := range []termMode{{nodes: 1, first: 80, laneSpan: 16, translates: 3}, {nodes: 4, laneSpan: 4096, translates: 2}} {
			mode.nodes, mode.first, mode.laneSpan, mode.translates = shape.nodes, shape.first, shape.laneSpan, shape.translates
			mode := mode
			t.Run(fmt.Sprintf("translates/%s/nodes=%d/lanes=%dx%d", mode.name, mode.nodes, mode.laneSpan, mode.translates), func(t *testing.T) {
				acrossShards(t, func(t *testing.T, shards int) string {
					r := termJob(t, mode, shards, termRounds)
					checkTermJob(t, mode, termRounds, r)
					return r.summary()
				})
			})
		}
	}
	// PBMW: keys past the static shares reach lanes in grants, each sent
	// once a lane has drained its work, so map tasks, their tuples and the
	// ReduceDoneAdd sums interleave with the master's grant traffic. The
	// first two rounds pool two thirds of their keys; the second holds
	// every map task, so lanes keep reducing while others wait for grants;
	// the third pools none, and every lane's request comes back empty.
	for _, mode := range []termMode{
		{name: "pbmw/classic", pbmw: true},
		{name: "pbmw/coalesced", pbmw: true, coalesce: true},
		{name: "pbmw/resilient", pbmw: true, resilient: true},
	} {
		for _, nodes := range []int{1, 2} {
			mode.nodes = nodes
			mode := mode
			lanes := nodes * 2048
			rounds := []termRound{{keys: uint64(3 * lanes), emits: 2}, {keys: uint64(3 * lanes), emits: 1, hold: 3000}, termRounds[1]}
			t.Run(fmt.Sprintf("%s/nodes=%d", mode.name, nodes), func(t *testing.T) {
				for _, r := range rounds[:2] {
					if kvmsr.PoolStartForTest(termPBMW, lanes, r.keys) >= r.keys {
						t.Fatalf("a %d-key round pools no keys over %d lanes: the leg is vacuous", r.keys, lanes)
					}
				}
				acrossShards(t, func(t *testing.T, shards int) string {
					r := termJob(t, mode, shards, rounds)
					checkTermJob(t, mode, rounds, r)
					return r.summary()
				})
			})
		}
	}
	// Delivery order: with event messages delayed at random, a probe can
	// overtake the tuples queued ahead of it and a reply or push the
	// messages sent before it. Conservation and launch order must still
	// hold. The middle round holds every lane's map task until its reduces
	// are done, so it completes on its last node_done and the next launch
	// starts at once: a drain reply still in flight then would land in that
	// launch's convergecast. One shard count: the legs above vary it, and
	// fault verdicts do not depend on it.
	for _, mode := range []termMode{
		{name: "classic"},
		{name: "coalesced", coalesce: true},
	} {
		for _, nodes := range []int{2, 4} {
			for _, seed := range []uint64{1, 2, 3} {
				mode.nodes, mode.delaySeed = nodes, seed
				mode := mode
				rounds := []termRound{termRounds[0], {keys: uint64(nodes * 2048), emits: 2, hold: 20000}, termRounds[1]}
				t.Run(fmt.Sprintf("delayed/%s/nodes=%d/seed=%d", mode.name, nodes, seed), func(t *testing.T) {
					r := termJob(t, mode, 1, rounds)
					checkTermJob(t, mode, rounds, r)
					if r.stats.Faults.Delayed == 0 || r.totals.AtMapDone == 0 {
						t.Fatalf("no message delayed or no launch completed at map-done: the leg is vacuous: %s", r.summary())
					}
				})
			}
		}
	}
}

// A launch that emits nothing, and a launch whose reduces all finish (and
// ride the completion tree) before the last map task returns, complete on
// the last node_done: the master sends no probe, each node's drain finds
// nothing, and nothing is pushed.
func TestNoProbeWhenDrained(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode termMode
		// every lane gets one map task, so no lane reports map-done
		// before the held tasks return
		round func(lanes int) termRound
	}{
		{"zero-emit", termMode{nodes: 2}, func(lanes int) termRound { return termRound{keys: 500} }},
		{"drained-before-map-done", termMode{nodes: 2}, func(lanes int) termRound {
			return termRound{keys: uint64(lanes), emits: 2, hold: 6000}
		}},
		{"drained-coalesced", termMode{nodes: 2, coalesce: true}, func(lanes int) termRound {
			return termRound{keys: uint64(lanes), emits: 2, hold: 6000}
		}},
		{"drained-slice", termMode{nodes: 1, first: 80, laneSpan: 16}, func(lanes int) termRound {
			return termRound{keys: 16, emits: 2, hold: 6000}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acrossShards(t, func(t *testing.T, shards int) string {
				r := tc.round(tc.mode.nodes * 2048)
				rounds := []termRound{r, r}
				res := termJob(t, tc.mode, shards, rounds)
				if res.sum != wantSum(rounds) {
					t.Fatalf("reduce sum %d, want %d", res.sum, wantSum(rounds))
				}
				nodes := uint64(tc.mode.nodes)
				if res.totals.AtMapDone != 2 || res.totals.NodeDrains != 2*nodes {
					t.Fatalf("drained launches did not complete at map-done after one drain per node: %+v", res.totals)
				}
				if res.totals.DeltaMsgs != 0 || res.totals.Pushes != 0 {
					t.Fatalf("deltas were pushed although no lane ever entered report mode: %+v", res.totals)
				}
				return res.summary()
			})
		})
	}
}

// On real applications too the master never probes and each node drains
// its lanes once per launch: BFS (one launch per round, sub-worker
// SendReduce) and triangle counting (one long launch).
func TestAtMostOneProbe(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	for _, coalesce := range []bool{false, true} {
		machine := func(t *testing.T, shards, maxDeg int) (*updown.Machine, *graph.DeviceGraph) {
			cfg := updown.Config{Nodes: 2, Shards: shards, MaxTime: 1 << 42}
			if coalesce {
				cfg.Coalesce = &kvmsr.Coalesce{}
			}
			m, err := updown.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, maxDeg), graph.DefaultPlacement(2))
			if err != nil {
				t.Fatal(err)
			}
			return m, dg
		}
		check := func(t *testing.T, tt kvmsr.TerminationTotals) {
			if tt.Launches == 0 || tt.NodeDrains != 2*tt.Launches {
				t.Fatalf("want one drain per node and launch: %+v", tt)
			}
		}
		t.Run(fmt.Sprintf("bfs/coalesce=%v", coalesce), func(t *testing.T) {
			acrossShards(t, func(t *testing.T, shards int) string {
				m, dg := machine(t, shards, 16)
				app, err := bfs.New(m, dg, bfs.Config{Root: 28})
				if err != nil {
					t.Fatal(err)
				}
				app.InitValues()
				st, err := app.Run()
				if err != nil {
					t.Fatal(err)
				}
				tt := app.TerminationTotals()
				check(t, tt)
				if tt.Launches != uint64(app.Rounds) {
					t.Fatalf("%d launches over %d rounds", tt.Launches, app.Rounds)
				}
				return fmt.Sprintf("%d %+v %+v", app.Elapsed(), st, tt)
			})
		})
		t.Run(fmt.Sprintf("tc/coalesce=%v", coalesce), func(t *testing.T) {
			acrossShards(t, func(t *testing.T, shards int) string {
				m, dg := machine(t, shards, 0)
				app, err := tc.New(m, dg, tc.Config{})
				if err != nil {
					t.Fatal(err)
				}
				st, err := app.Run()
				if err != nil {
					t.Fatal(err)
				}
				tt := app.TerminationTotals()
				check(t, tt)
				return fmt.Sprintf("%d %d %+v %+v", app.Elapsed(), app.Total(), st, tt)
			})
		})
	}
}

// BFS under reordered delivery: the root's visited mark is acked before
// its accelerator fans round 0 out, so no tuple can reach the root's owner
// ahead of it however messages are delayed, and the search still stops on
// the first round that visits nothing. Distances match the host baseline,
// Rounds is 1 + the deepest distance, the rounds' ReduceDoneAdd sums count
// every reached vertex but the root, and the conservation law closes.
func TestBFSUnderDelay(t *testing.T) {
	g := graph.FromEdges(256, graph.DefaultRMAT(8, 15), graph.BuildOptions{
		Undirected: true, Dedup: true, DropSelfLoops: true, SortNeighbors: true})
	want := baseline.BFS(g, 28)
	depth, reached := 0, uint64(0)
	for _, d := range want {
		if d != baseline.Unreached {
			depth, reached = max(depth, int(d)), reached+1
		}
	}
	for _, coalesce := range []bool{false, true} {
		for _, nodes := range []int{2, 4} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("coalesce=%v/nodes=%d/seed=%d", coalesce, nodes, seed), func(t *testing.T) {
					cfg := updown.Config{Nodes: nodes, Shards: 1, MaxTime: 1 << 42, Fault: delayPlan(seed)}
					if coalesce {
						cfg.Coalesce = &kvmsr.Coalesce{}
					}
					m, err := updown.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 16), graph.DefaultPlacement(nodes))
					if err != nil {
						t.Fatal(err)
					}
					app, err := bfs.New(m, dg, bfs.Config{Root: 28})
					if err != nil {
						t.Fatal(err)
					}
					app.InitValues()
					st, err := app.Run()
					if err != nil {
						t.Fatal(err)
					}
					if st.Faults.Delayed == 0 {
						t.Fatal("no message delayed: the leg is vacuous")
					}
					for v, d := range app.Distances() {
						if w := uint64(want[v]); want[v] == baseline.Unreached && d != bfs.Unvisited || want[v] != baseline.Unreached && d != w {
							t.Fatalf("vertex %d: distance %d, baseline %d", v, d, want[v])
						}
					}
					if app.Rounds != depth+1 {
						t.Fatalf("%d rounds for depth %d", app.Rounds, depth)
					}
					var visited uint64
					for _, r := range app.RoundLog {
						visited += r.New
					}
					s := app.Shuffle.TerminationState(m.LanePeek())
					if visited != reached-1 || s.Reduced != s.E || s.Reported != s.E || s.R != s.E ||
						s.Added != visited || s.S != visited || s.Armed != 0 || s.Pending != 0 {
						t.Fatalf("%d of %d vertices visited after the root, not conserved: %+v", visited, reached-1, s)
					}
				})
			}
		}
	}
}

// One key receives every tuple, so its owner lane is still reducing long
// after its node's drain probe has reached it. The launch must complete
// one lane -> accelerator -> node -> master traversal (plus, if the lane
// has replied already, its push's linger) after the last ReduceDone, not at
// the next poll, and the hot lane — backlogged the whole time — must batch:
// it owes its counted reply until it is idle and sends at most one message
// per reduce-idle transition.
func TestHotReducerCompletesOnLastReduce(t *testing.T) {
	const tuples = 1500
	acrossShards(t, func(t *testing.T, shards int) string {
		m, err := updown.New(updown.Config{Nodes: 2, Shards: shards, MaxTime: 1 << 36})
		if err != nil {
			t.Fatal(err)
		}
		counter, err := m.GAS.DRAMmalloc(8, 0, 1, 4096)
		if err != nil {
			t.Fatal(err)
		}
		lanes := kvmsr.AllLanes(m.Arch)
		hot := lanes.End() - 1 // far corner of the tree from the master
		var inv *kvmsr.Invocation
		// Map tasks wait out the broadcast before emitting: tuples that
		// beat the hot lane's lane_start would queue ahead of it, hold
		// map-done back and let the probe arrive after the last reduce.
		type mapState struct{ cont uint64 }
		var emit udweave.Label
		mapEv := m.Prog.Define("hot_map", func(c *updown.Ctx) {
			c.SetState(&mapState{cont: c.Cont()})
			c.SendEventAfter(3000, c.ContinueTo(emit), udweave.IGNRCONT)
		})
		emit = m.Prog.Define("hot_map_emit", func(c *updown.Ctx) {
			inv.Emit(c, 0, 1)
			inv.Return(c, c.State().(*mapState).cont)
			c.YieldTerminate()
		})
		var inflight, idles int
		var lastDone, completed updown.Cycles
		var ack udweave.Label
		reduceEv := m.Prog.Define("hot_reduce", func(c *updown.Ctx) {
			if c.NetworkID() != hot {
				t.Errorf("reduce ran on lane %d, want %d", c.NetworkID(), hot)
			}
			inflight++
			c.Cycles(8)
			c.DRAMFetchAdd(counter, c.Op(1), c.ContinueTo(ack))
		})
		ack = m.Prog.Define("hot_reduce_ack", func(c *updown.Ctx) {
			c.Cycles(60)
			inv.ReduceDone(c)
			if inflight--; inflight == 0 {
				idles++
			}
			lastDone = c.Now()
			c.YieldTerminate()
		})
		done := m.Prog.Define("hot_done", func(c *updown.Ctx) {
			completed = c.Now()
			c.YieldTerminate()
		})
		inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "hot", MapEvent: mapEv, ReduceEvent: reduceEv, Lanes: lanes,
			ReduceBinding: kvmsr.ReduceFunc(func(uint64, kvmsr.LaneSet) updown.NetworkID { return hot })})
		m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(lanes.First, done), tuples)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.GAS.ReadU64(counter); got != tuples {
			t.Fatalf("reduced %d tuples, want %d", got, tuples)
		}
		tt := inv.TerminationTotals(m.LanePeek())
		if tt.NodeDrains != 2 {
			t.Fatalf("want no master probe and one drain per node, got %+v", tt)
		}
		a := m.Arch
		bound := a.LatCrossNode/4 + a.LatSameAccel + a.LatSameNode + a.LatCrossNode + 200
		if gap := completed - lastDone; gap <= 0 || gap > bound {
			t.Fatalf("completion %d cycles after the last ReduceDone (at %d), want at most %d", gap, lastDone, bound)
		}
		checkConserved(t, inv, m, tuples, 0)
		pushes := inv.PushesForTest(m.LanePeek(), hot)
		if pushes > uint64(idles) {
			t.Fatalf("hot lane pushed %d deltas over %d reduce-idle transitions", pushes, idles)
		}
		if idles >= tuples/4 {
			t.Fatalf("hot lane went idle %d times over %d tuples: the reduces did not overlap, the test is vacuous", idles, tuples)
		}
		return fmt.Sprintf("%d %d %d %d %+v %+v", completed, lastDone, pushes, idles, st, tt)
	})
}

// Tuples that reach their reducers after the drain probes have passed
// (here they linger in the pack buffers of helper lanes whose own map phase
// is over, as BFS sub-workers' would without Invocation.Flush) are reported
// by pushes: the launch completes on a pushed delta, one linger and one
// tree traversal after the last ReduceDone, with no probe from the master,
// and the tree masters combine the burst on the way up.
func TestLateTuplesCompleteByPush(t *testing.T) {
	const tasks = 64
	acrossShards(t, func(t *testing.T, shards int) string {
		m, err := updown.New(updown.Config{Nodes: 2, Shards: shards, MaxTime: 1 << 36,
			Coalesce: &kvmsr.Coalesce{}})
		if err != nil {
			t.Fatal(err)
		}
		lanes := kvmsr.AllLanes(m.Arch)
		perNode := m.Arch.LanesPerNode()
		var inv *kvmsr.Invocation
		type mapState struct{ cont uint64 }
		var helper, helper2, back udweave.Label
		// Task k runs on lane 2k and has lane 2k+1 send its two tuples. The
		// first starts the helper's flush guard, which sends it at once;
		// the second is buffered behind the guard's next wake-up, two
		// cross-node latencies away — long after map-done and the probe.
		mapEv := m.Prog.Define("late_map", func(c *updown.Ctx) {
			c.SetState(&mapState{cont: c.Cont()})
			c.SendEvent(updown.EvwNew(c.NetworkID()+1, helper), c.ContinueTo(back), c.Op(0))
		})
		helper = m.Prog.Define("late_helper", func(c *updown.Ctx) {
			inv.SendReduce(c, c.Op(0), 1)
			c.SendEvent(c.ContinueTo(helper2), c.Cont(), c.Op(0))
		})
		helper2 = m.Prog.Define("late_helper2", func(c *updown.Ctx) {
			inv.SendReduce(c, c.Op(0)+tasks, 1)
			c.Reply(c.Cont(), 2) // the helpers' two sends
			c.YieldTerminate()
		})
		back = m.Prog.Define("late_map_back", func(c *updown.Ctx) {
			inv.EmitFrom(c, c.Op(0))
			inv.Return(c, c.State().(*mapState).cont)
			c.YieldTerminate()
		})
		var reduced atomic.Int64
		var lastDone atomic.Int64
		reduceEv := m.Prog.Define("late_reduce", func(c *updown.Ctx) {
			inv.ReduceDone(c)
			reduced.Add(1)
			for now := int64(c.Now()); ; {
				if old := lastDone.Load(); old >= now || lastDone.CompareAndSwap(old, now) {
					break
				}
			}
			c.YieldTerminate()
		})
		var completed updown.Cycles
		done := m.Prog.Define("late_done", func(c *updown.Ctx) {
			completed = c.Now()
			if reduced.Load() != 2*tasks {
				t.Errorf("completed with %d of %d reduces finished", reduced.Load(), 2*tasks)
			}
			c.YieldTerminate()
		})
		inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "late", MapEvent: mapEv, ReduceEvent: reduceEv, Lanes: lanes,
			MapBinding: kvmsr.Stride{Step: 2}, Coalesce: m.Coalesce,
			// every reducer lives on the second node
			ReduceBinding: kvmsr.ReduceFunc(func(key uint64, ls kvmsr.LaneSet) updown.NetworkID {
				return ls.First + updown.NetworkID(perNode+int(key*37)%perNode)
			})})
		m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(lanes.First, done), tasks)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		tt := inv.TerminationTotals(m.LanePeek())
		if tt.NodeDrains != 2 || tt.DeltaReduces != tasks {
			t.Fatalf("want one drain per node and the %d lingering tuples' reduces pushed, got %+v", tasks, tt)
		}
		if tt.DeltaMsgs == 0 || tt.DeltaMsgs > tt.Pushes || tt.Pushes > tasks {
			t.Fatalf("pushes not combined on the way up: %+v", tt)
		}
		a := m.Arch
		bound := a.LatCrossNode/4 + a.LatSameAccel + a.LatSameNode + a.LatCrossNode + 200
		if gap := completed - updown.Cycles(lastDone.Load()); gap <= 0 || gap > bound {
			t.Fatalf("completion %d cycles after the last ReduceDone, want at most %d", gap, bound)
		}
		checkConserved(t, inv, m, 2*tasks, 0)
		return fmt.Sprintf("%d %d %+v %+v", completed, lastDone.Load(), st, tt)
	})
}

// A reduce of launch k+1 that runs on a lane still in report mode from
// launch k (its lane_start has not arrived yet) is pushed like a late
// reduce of launch k. The master's cumulative sums absorb it: counts stay
// balanced and the launches complete in order with the right deltas.
func TestRacingReduceAcrossLaunches(t *testing.T) {
	acrossShards(t, func(t *testing.T, shards int) string {
		m, err := updown.New(updown.Config{Nodes: 2, Shards: shards, MaxTime: 1 << 36})
		if err != nil {
			t.Fatal(err)
		}
		counter, err := m.GAS.DRAMmalloc(8, 0, 1, 4096)
		if err != nil {
			t.Fatal(err)
		}
		lanes := kvmsr.AllLanes(m.Arch)
		far := uint64(lanes.Count - 1) // last lane: the last to see lane_start
		keys := []uint64{600, uint64(lanes.Count), 600}
		var inv *kvmsr.Invocation
		mapEv := m.Prog.Define("race_map", func(c *updown.Ctx) {
			if launch := c.Op(1); launch == 1 {
				// One task per lane, one emitter: lane 65 starts a
				// cross-node latency before the far lane does and sends
				// straight to it.
				if c.Op(0) == 65 {
					inv.Emit(c, far, launch)
				}
			} else {
				inv.Emit(c, c.Op(0)*7, launch)
				inv.Emit(c, c.Op(0)*7+3, launch)
			}
			inv.Return(c, c.Cont())
			c.YieldTerminate()
		})
		var raced atomic.Int64
		var reduced [3]atomic.Uint64
		var ack udweave.Label
		reduceEv := m.Prog.Define("race_reduce", func(c *updown.Ctx) {
			launch := c.Op(1)
			c.Cycles(30)
			if launch != 1 {
				// Two-event reduces finish after map-done, so launches 0
				// and 2 leave every lane in report mode.
				c.SetState(launch)
				c.DRAMFetchAdd(counter, 1, c.ContinueTo(ack))
				return
			}
			if inv.ReportModeForTest(c) {
				raced.Add(1)
			}
			reduced[launch].Add(1)
			inv.ReduceDone(c)
			c.YieldTerminate()
		})
		ack = m.Prog.Define("race_reduce_ack", func(c *updown.Ctx) {
			reduced[c.State().(uint64)].Add(1)
			inv.ReduceDone(c)
			c.YieldTerminate()
		})
		var doneAt []updown.Cycles
		var deltas []uint64
		var done udweave.Label
		done = m.Prog.Define("race_done", func(c *updown.Ctx) {
			n := len(doneAt)
			doneAt = append(doneAt, c.Now())
			deltas = append(deltas, c.Op(0))
			if got := reduced[n].Load(); got != c.Op(0) {
				t.Errorf("launch %d completed with %d of %d reduces finished", n, got, c.Op(0))
			}
			if n+1 < len(keys) {
				inv.LaunchWithArg(c, keys[n+1], uint64(n+1), c.ContinueTo(done))
				return
			}
			c.YieldTerminate()
		})
		inv = kvmsr.MustNew(m.Prog, kvmsr.Spec{Name: "race", MapEvent: mapEv, ReduceEvent: reduceEv, Lanes: lanes,
			ReduceBinding: kvmsr.ReduceFunc(func(key uint64, ls kvmsr.LaneSet) updown.NetworkID {
				return ls.First + updown.NetworkID(key%uint64(ls.Count))
			})})
		m.StartWithCont(inv.LaunchEvw(), updown.EvwNew(lanes.First, done), keys[0], 0)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if raced.Load() != 1 {
			t.Fatalf("the launch-1 reduce did not run in report mode (raced=%d): the test is vacuous", raced.Load())
		}
		if fmt.Sprint(deltas) != "[1200 1 1200]" {
			t.Fatalf("deltas = %v", deltas)
		}
		for i := 1; i < len(doneAt); i++ {
			if doneAt[i] <= doneAt[i-1] {
				t.Fatalf("completions out of order: %v", doneAt)
			}
		}
		checkConserved(t, inv, m, 2401, 0)
		tt := inv.TerminationTotals(m.LanePeek())
		return fmt.Sprintf("%v %v %+v %+v", doneAt, deltas, st, tt)
	})
}
