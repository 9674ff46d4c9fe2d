package tc_test

import (
	"fmt"
	"testing"

	"updown"
	"updown/internal/apps/tc"
	"updown/internal/arch"
	"updown/internal/baseline"
	"updown/internal/fault"
	"updown/internal/graph"
	"updown/internal/kvmsr"
)

// totalCheck runs TC on g and checks that its total is the pair launch's
// completion sum: it equals the host baseline, nothing writes DRAM, and the
// termination counters balance with it (R == E, and the lanes' summed
// ReduceDoneAdd values equal the master's sum and Total()).
func totalCheck(t *testing.T, name string, cfg updown.Config, g *graph.Graph) updown.Stats {
	t.Helper()
	cfg.MaxTime = 1 << 42
	m, err := updown.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(g, 0), graph.DefaultPlacement(cfg.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.New(m, dg, tc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := app.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := baseline.TriangleCount(g); app.Total() != want {
		t.Errorf("%s: total %d, baseline %d", name, app.Total(), want)
	}
	if stats.DRAMWrites != 0 {
		t.Errorf("%s: %d DRAM writes, want none", name, stats.DRAMWrites)
	}
	if s := app.Shuffle.TerminationState(m.LanePeek()); s.R != s.E || s.Added != s.S || s.S != app.Total() {
		t.Errorf("%s: termination counters do not balance with total %d: %+v", name, app.Total(), s)
	}
	return stats
}

// TestTotalIsCompletionSum runs every shuffle mode under the Block (3
// nodes: the graph sits on 2, so Owner does not apply) and Owner (2 nodes)
// bindings, each cell at shards 1, 2 and 7. kvmsr's termination tests run
// the completion sum under PBMW's grants.
func TestTotalIsCompletionSum(t *testing.T) {
	g := buildTCGraph(8, 77)
	modes := []struct {
		name string
		cfg  updown.Config
	}{
		{"classic", updown.Config{}},
		{"coalesce", updown.Config{Coalesce: &kvmsr.Coalesce{}}},
		{"resilient", updown.Config{Resilience: &kvmsr.Resilience{}}},
	}
	bindings := []struct {
		name  string
		nodes int
	}{{"block", 3}, {"owner", 2}}
	for _, mode := range modes {
		for _, b := range bindings {
			for _, shards := range []int{1, 2, 7} {
				cfg := mode.cfg
				cfg.Nodes, cfg.Shards = b.nodes, shards
				totalCheck(t, fmt.Sprintf("%s/%s/shards=%d", mode.name, b.name, shards), cfg, g)
			}
		}
	}
}

// TestTotalUnderReordering delays 30% of messages by up to 2,000 cycles (a
// delay-only fault plan: nothing is lost), so reduces finish and their
// counts climb the tree in any order; the total must still be exact.
func TestTotalUnderReordering(t *testing.T) {
	g := buildTCGraph(8, 77)
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := updown.Config{Nodes: 2, Shards: 1, Fault: &fault.Plan{Seed: seed,
			Rules: []fault.MsgRule{{Kinds: 1<<arch.KindEvent | 1<<arch.KindEventU,
				SrcNode: fault.AnyNode, DstNode: fault.AnyNode, DelayProb: 0.3, DelayCycles: 2000}}}}
		name := fmt.Sprintf("seed=%d", seed)
		if totalCheck(t, name, cfg, g).Faults.Delayed == 0 {
			t.Fatalf("%s: no message was delayed", name)
		}
	}
}

// TestProgramLabels pins the event labels a TC program defines: the pair
// invocation's and TC's own. The total rides the pair launch's completion,
// so there is no flush launch: 24 labels, 44 while a combining cache's
// drain (a doAll's 15 and the flush's 5) wrote per-lane totals to DRAM.
func TestProgramLabels(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.LoadToGAS(m.GAS, graph.Split(buildTCGraph(6, 1), 0), graph.DefaultPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Prog.NumHandlers()
	if _, err := tc.New(m, dg, tc.Config{}); err != nil {
		t.Fatal(err)
	}
	if n := m.Prog.NumHandlers() - before; n != 24 {
		t.Fatalf("a TC program defines %d labels, want 24", n)
	}
}
