package harness

import (
	"errors"
	"strings"
	"testing"
)

// The figure runners at miniature scale: every experiment must complete,
// validate, and produce plausible tables. These are the end-to-end
// integration tests of the whole stack.

func TestFig9PageRankSmoke(t *testing.T) {
	tables, err := Fig9PageRank(Fig9Options{
		Scale: 9, Nodes: []int{1, 2}, Presets: []string{"rmat"},
		Validate: true, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("unexpected shape: %+v", tables)
	}
	if tables[0].Rows[0].Speedup != 1.0 {
		t.Fatal("first row speedup must be 1")
	}
	if tables[0].Rows[0].Metric <= 0 {
		t.Fatal("metric missing")
	}
}

func TestFig9BFSSmoke(t *testing.T) {
	tables, err := Fig9BFS(Fig9Options{
		Scale: 9, Nodes: []int{1, 2}, Presets: []string{"soc-livej"},
		Validate: true, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 {
		t.Fatal("row count")
	}
}

func TestFig9TCSmoke(t *testing.T) {
	tables, err := Fig9TC(Fig9Options{
		Scale: 8, Nodes: []int{1, 2}, Presets: []string{"com-orkut"},
		Validate: true, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 2 {
		t.Fatal("row count")
	}
}

func TestFig10Smoke(t *testing.T) {
	tables, err := Fig10Ingestion(Fig10Options{
		BaseRecords: 300, Multipliers: []float64{1}, Nodes: []int{1, 2},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatal("shape")
	}
}

func TestFig11Smoke(t *testing.T) {
	tb, err := Fig11PartialMatch(Fig11Options{
		Records: 120, LaneCounts: []int{64, 512}, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("shape")
	}
	if tb.Rows[1].Metric >= tb.Rows[0].Metric {
		t.Logf("warning: latency did not improve at this tiny scale: %v vs %v",
			tb.Rows[1].Metric, tb.Rows[0].Metric)
	}
}

func TestFig12Smoke(t *testing.T) {
	// The placement sweep only shows its effect when the graph traffic is
	// memory-bound: a larger graph and the reduced-bandwidth operating
	// point (see Fig12Options.DRAMBytesPerCycle).
	tables, err := Fig12Placement(Fig12Options{
		ComputeNodes: 4, MemNodes: []int{1, 4}, Scale: 13,
		DRAMBytesPerCycle: 100, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatal("want PR and BFS tables")
	}
	// Wider striping must help when memory-bound.
	pr := tables[0]
	if pr.Rows[1].Cycles >= pr.Rows[0].Cycles {
		t.Fatalf("PR with 4 memory nodes (%d cycles) not faster than 1 (%d cycles)",
			pr.Rows[1].Cycles, pr.Rows[0].Cycles)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "T", Workload: "W", MetricName: "M",
		Rows:  []Row{{Label: "1", Cycles: 100, Seconds: 5e-8, Speedup: 1, Metric: 3.5}},
		Notes: []string{"hello"}}
	txt := tb.Format()
	for _, want := range []string{"T — W", "config", "M", "hello", "3.5"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format missing %q:\n%s", want, txt)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| 1 | 100 |") {
		t.Errorf("Markdown wrong:\n%s", md)
	}

	// Byte-exact goldens for every table type, with every optional column
	// group on and off (see golden_test.go).
	type renderer interface {
		Format() string
		Markdown() string
	}
	for name, r := range map[string]renderer{
		"table": goldenTable(false), "table-full": goldenTable(true),
		"chaos": goldenChaos(false), "chaos-crit": goldenChaos(true),
		"chaosrep": goldenChaosRep(),
	} {
		if got, want := r.Format(), goldenRenders[name+".txt"]; got != want {
			t.Errorf("%s Format:\n%s\nwant:\n%s", name, got, want)
		}
		if got, want := r.Markdown(), goldenRenders[name+".md"]; got != want {
			t.Errorf("%s Markdown:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestBadOptions: every option value that used to reach a panic (negative
// shift, root outside the graph, negative make length) or a nonsensical
// sweep (non-positive arrival gaps: +Inf offered rate, unsorted schedule)
// is rejected by the entry point with ErrBadOption before anything is
// built.
func TestBadOptions(t *testing.T) {
	tables := func(_ []*Table, err error) error { return err }
	for name, err := range map[string]error{
		"fig9pr scale -1":   tables(Fig9PageRank(Fig9Options{Scale: -1})),
		"fig9pr scale 31":   tables(Fig9PageRank(Fig9Options{Scale: 31})),
		"fig9bfs root":      tables(Fig9BFS(Fig9Options{Scale: 3, Presets: []string{"rmat"}})),
		"fig9tc nodes 0":    tables(Fig9TC(Fig9Options{Scale: 8, Nodes: []int{0}})),
		"fig10 records -5":  tables(Fig10Ingestion(Fig10Options{BaseRecords: -5})),
		"fig10 mult 0":      tables(Fig10Ingestion(Fig10Options{Multipliers: []float64{1, 0}})),
		"fig12 root":        tables(Fig12Placement(Fig12Options{Scale: 4})),
		"fig12 compute -1":  tables(Fig12Placement(Fig12Options{Scale: 8, ComputeNodes: -1})),
		"fig11 records -1":  func() error { _, err := Fig11PartialMatch(Fig11Options{Records: -1}); return err }(),
		"chaos root":        func() error { _, err := ChaosBFS(ChaosOptions{Scale: 3}); return err }(),
		"chaos nodes -1":    func() error { _, err := ChaosBFS(ChaosOptions{Scale: 8, Nodes: -1}); return err }(),
		"chaosrep root":     func() error { _, err := ChaosReplicated(ChaosRepOptions{Scale: 3}); return err }(),
		"figserve queries":  func() error { _, err := FigServe(FigServeOptions{Queries: -1}); return err }(),
		"figserve gap 0":    func() error { _, err := FigServe(FigServeOptions{Gaps: []int64{4000, 0}}); return err }(),
		"figserve gap -5":   func() error { _, err := FigServe(FigServeOptions{Gaps: []int64{-5}}); return err }(),
		"figserve slots>ln": func() error { _, err := FigServe(FigServeOptions{Slots: 129}); return err }(),
		"figsched jobs -2":  func() error { _, err := FigSched(FigSchedOptions{Jobs: -2}); return err }(),
		"figsched load 0":   func() error { _, err := FigSched(FigSchedOptions{Loads: []int64{0}}); return err }(),
		"figsched load -5":  func() error { _, err := FigSched(FigSchedOptions{Loads: []int64{-5}}); return err }(),
		"figsched scale -1": func() error { _, err := FigSched(FigSchedOptions{Scale: -1}); return err }(),
		"figserve scale -1": func() error { _, err := FigServe(FigServeOptions{Scale: -1}); return err }(),
		"chaos scale -1":    func() error { _, err := ChaosBFS(ChaosOptions{Scale: -1}); return err }(),
		"chaosrep scale -1": func() error { _, err := ChaosReplicated(ChaosRepOptions{Scale: -1}); return err }(),
		"fig12 scale -1":    tables(Fig12Placement(Fig12Options{Scale: -1})),
		"fig9bfs scale -1":  tables(Fig9BFS(Fig9Options{Scale: -1})),
		"fig9tc scale -1":   tables(Fig9TC(Fig9Options{Scale: -1})),
		"fig9bfs nodes 3M":  tables(Fig9BFS(Fig9Options{Scale: 8, Nodes: []int{1, 3000000}})),
		"fig12 compute 3M":  tables(Fig12Placement(Fig12Options{Scale: 8, ComputeNodes: 3000000})),
		"figsched lanes":    func() error { _, err := FigSched(FigSchedOptions{LanesPerAccel: 1 << 40}); return err }(),
	} {
		if !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", name, err)
		}
	}
}

func TestFillSpeedups(t *testing.T) {
	tb := &Table{Rows: []Row{{Cycles: 100}, {Cycles: 50}, {Cycles: 25}}}
	tb.FillSpeedups()
	if tb.Rows[0].Speedup != 1 || tb.Rows[1].Speedup != 2 || tb.Rows[2].Speedup != 4 {
		t.Fatalf("speedups %v", tb.Rows)
	}
}

func TestParseNodeList(t *testing.T) {
	tests := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"4, 1,2", []int{1, 2, 4}, true},
		{"8", []int{8}, true},
		{" 1 ,\t2 ", []int{1, 2}, true},     // whitespace trimmed
		{"1,,2,", []int{1, 2}, true},        // empty fields skipped
		{"4,1,4,2,1", []int{1, 2, 4}, true}, // duplicates removed
		{"", nil, false},
		{",,", nil, false},
		{"a,b", nil, false},
		{"8x", nil, false}, // Sscanf used to accept this as 8
		{"1 2", nil, false},
		{"2,3x4", nil, false},
		{"0", nil, false},
		{"-4", nil, false},
		{"4.5", nil, false},
		{"0x10", nil, false},
	}
	for _, tc := range tests {
		got, err := ParseNodeList(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseNodeList(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseNodeList(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseNodeList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseNodeList(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// TestTimeoutBecomesNote: a configuration that exceeds MaxTime must be
// recorded as a table note, not abort the sweep — the remaining rows (none
// of which can complete either at 100 cycles) still get their turn and the
// runner returns without error.
func TestTimeoutBecomesNote(t *testing.T) {
	tables, err := Fig9PageRank(Fig9Options{
		Scale: 9, Nodes: []int{1, 2}, Presets: []string{"rmat"},
		Shards: 1, MaxTime: 100,
	})
	if err != nil {
		t.Fatalf("sweep aborted on timeout: %v", err)
	}
	tb := tables[0]
	if len(tb.Rows) != 0 {
		t.Fatalf("expected no completed rows at MaxTime=100, got %d", len(tb.Rows))
	}
	if len(tb.Notes) != 2 {
		t.Fatalf("expected one note per timed-out configuration, got %v", tb.Notes)
	}
	for i, want := range []string{"nodes=1", "nodes=2"} {
		if !strings.Contains(tb.Notes[i], want) || !strings.Contains(tb.Notes[i], "MaxTime") {
			t.Errorf("note %d = %q, want it to name %s and the timeout", i, tb.Notes[i], want)
		}
	}
}

// TestProfiledSweepFillsUtilization: with Profile set, every completed row
// carries imbalance and utilization figures and the rendered tables grow
// the corresponding columns.
func TestProfiledSweepFillsUtilization(t *testing.T) {
	tables, err := Fig9PageRank(Fig9Options{
		Scale: 9, Nodes: []int{2}, Presets: []string{"rmat"},
		Shards: 1, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := tables[0].Rows[0]
	if r.Imbalance < 1 {
		t.Errorf("imbalance = %v, want >= 1 (peak/mean)", r.Imbalance)
	}
	if r.DRAMUtil <= 0 || r.DRAMUtil > 1 {
		t.Errorf("DRAM utilization = %v, want (0, 1]", r.DRAMUtil)
	}
	if r.InjUtil < 0 || r.InjUtil > 1 {
		t.Errorf("injection utilization = %v, want [0, 1]", r.InjUtil)
	}
	txt := tables[0].Format()
	if !strings.Contains(txt, "imbal") || !strings.Contains(txt, "dram%") {
		t.Errorf("profiled table missing utilization columns:\n%s", txt)
	}
	md := tables[0].Markdown()
	if !strings.Contains(md, "imbal |") {
		t.Errorf("profiled markdown missing utilization columns:\n%s", md)
	}
}

func TestFigSchedSmoke(t *testing.T) {
	res, err := FigSched(FigSchedOptions{
		Nodes: 2, AccelsPerNode: 2, LanesPerAccel: 8,
		Scale: 7, Jobs: 6, Loads: []int64{4000}, Seed: 7,
		Shards: 2, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r.DoneJobs+r.RejectedJobs != r.Jobs {
		t.Fatalf("done %d + rejected %d != submitted %d", r.DoneJobs, r.RejectedJobs, r.Jobs)
	}
	if r.DoneJobs == 0 || r.JobsPerSec <= 0 || r.P99Ms < r.P50Ms {
		t.Fatalf("implausible row: %+v", r)
	}
	if res.Verified != r.DoneJobs {
		t.Fatalf("verified %d of %d done jobs", res.Verified, r.DoneJobs)
	}
	if len(r.Tenants) == 0 {
		t.Fatal("tenant accounting missing")
	}
}
