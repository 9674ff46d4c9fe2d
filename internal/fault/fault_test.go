package fault

import (
	"math"
	"strings"
	"testing"

	"updown/internal/arch"
)

func testMachine() arch.Machine { return arch.DefaultMachine(4) }

func TestCompileNilPlan(t *testing.T) {
	in, err := Compile(nil, testMachine())
	if err != nil || in != nil {
		t.Fatalf("Compile(nil) = %v, %v; want nil, nil", in, err)
	}
}

func TestCompileValidation(t *testing.T) {
	m := testMachine()
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error, "" = must compile
	}{
		{"ok-basic", Plan{Rules: []MsgRule{{DropProb: 0.1, SrcNode: AnyNode, DstNode: AnyNode}}}, ""},
		{"neg-prob", Plan{Rules: []MsgRule{{DropProb: -0.1, SrcNode: AnyNode, DstNode: AnyNode}}}, "negative probability"},
		{"nan-prob", Plan{Rules: []MsgRule{{DupProb: math.NaN(), SrcNode: AnyNode, DstNode: AnyNode}}}, "NaN"},
		{"sum-over-one", Plan{Rules: []MsgRule{{DropProb: 0.6, DupProb: 0.6, SrcNode: AnyNode, DstNode: AnyNode}}}, "sum to"},
		{"bad-src", Plan{Rules: []MsgRule{{DropProb: 0.1, SrcNode: 99, DstNode: AnyNode}}}, "out of range"},
		{"empty-window", Plan{Rules: []MsgRule{{DropProb: 0.1, SrcNode: AnyNode, DstNode: AnyNode, From: 100, Until: 100}}}, "empty window"},
		{"bad-failstop", Plan{FailStops: []FailStop{{Node: 4, At: 1}}}, "out of range"},
		{"ok-failstop", Plan{FailStops: []FailStop{{Node: 3, At: 1}}}, ""},
		{"stall-not-lane", Plan{Stalls: []Stall{{Lane: m.MemCtrlID(0), At: 0, For: 10}}}, "not a lane"},
		{"stall-no-duration", Plan{Stalls: []Stall{{Lane: 0, At: 0, For: 0}}}, "non-positive duration"},
		{"ok-stall", Plan{Stalls: []Stall{{Lane: 0, At: 5, For: 10}}}, ""},
		{"bad-degrade-node", Plan{Degrades: []Degrade{{Node: -2, InjFactor: 2, DRAMFactor: 2}}}, "out of range"},
		{"ok-degrade", Plan{Degrades: []Degrade{{Node: 1, InjFactor: 2, DRAMFactor: 3}}}, ""},
	}
	for _, tc := range cases {
		_, err := Compile(&tc.plan, m)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// Verdicts are pure functions of (seed, src, seq): repeated queries agree,
// different seeds disagree somewhere, and observed frequencies approach
// the configured probabilities.
func TestMessageDeterminismAndDistribution(t *testing.T) {
	m := testMachine()
	plan := &Plan{Seed: 99, Rules: []MsgRule{{
		DropProb: 0.2, DupProb: 0.1, DelayProb: 0.1,
		SrcNode: AnyNode, DstNode: AnyNode, Kinds: 1 << arch.KindEventU,
	}}}
	in, err := Compile(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	var counts [4]int
	for seq := uint64(0); seq < trials; seq++ {
		v1, e1 := in.Message(arch.KindEventU, 7, seq, 0, 1, 50)
		v2, e2 := in.Message(arch.KindEventU, 7, seq, 0, 1, 50)
		if v1 != v2 || e1 != e2 {
			t.Fatalf("seq %d: verdict not deterministic", seq)
		}
		if v1 == VerdictDelay && (e1 < 1 || e1 > arch.Cycles(m.MinCrossNodeLatency())) {
			t.Fatalf("seq %d: delay %d outside [1, %d]", seq, e1, m.MinCrossNodeLatency())
		}
		counts[v1]++
	}
	for i, want := range []float64{0.6, 0.2, 0.1, 0.1} {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("verdict %d frequency %.3f, want %.3f±0.02", i, got, want)
		}
	}
	// A different seed must produce a different verdict sequence.
	plan2 := *plan
	plan2.Seed = 100
	in2, _ := Compile(&plan2, m)
	same := 0
	for seq := uint64(0); seq < 1000; seq++ {
		v1, _ := in.Message(arch.KindEventU, 7, seq, 0, 1, 50)
		v2, _ := in2.Message(arch.KindEventU, 7, seq, 0, 1, 50)
		if v1 == v2 {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seed change did not alter any verdict")
	}
}

func TestMessageFilters(t *testing.T) {
	m := testMachine()
	in, err := Compile(&Plan{Rules: []MsgRule{{
		DropProb: 1, SrcNode: 1, DstNode: 2, From: 100, Until: 200,
	}}}, m)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind uint8, srcNode, dstNode int32, at arch.Cycles, want Verdict) {
		t.Helper()
		if v, _ := in.Message(kind, 0, 0, srcNode, dstNode, at); v != want {
			t.Errorf("kind=%d src=%d dst=%d at=%d: verdict %d, want %d", kind, srcNode, dstNode, at, v, want)
		}
	}
	check(arch.KindEventU, 1, 2, 150, VerdictDrop)   // matches
	check(arch.KindEvent, 1, 2, 150, VerdictDeliver) // wrong kind (default eventu)
	check(arch.KindEventU, 0, 2, 150, VerdictDeliver)
	check(arch.KindEventU, 1, 3, 150, VerdictDeliver)
	check(arch.KindEventU, 1, 2, 99, VerdictDeliver)
	check(arch.KindEventU, 1, 2, 200, VerdictDeliver)
}

func TestFailStopStallDegradeQueries(t *testing.T) {
	m := testMachine()
	in, err := Compile(&Plan{
		FailStops: []FailStop{{Node: 2, At: 1000}},
		Stalls:    []Stall{{Lane: 5, At: 300, For: 100}, {Lane: 5, At: 50, For: 20}},
		Degrades:  []Degrade{{Node: 1, InjFactor: 3, DRAMFactor: 4, From: 500}},
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if in.NodeDead(2, 999) || !in.NodeDead(2, 1000) || in.NodeDead(1, 1e9) {
		t.Error("NodeDead boundaries wrong")
	}
	if !in.HasFailStops() || !in.HasStalls() {
		t.Error("Has* queries wrong")
	}
	// Stall ranges sorted by start: [50,70) then [300,400).
	if got := in.StallEnd(5, 60); got != 70 {
		t.Errorf("StallEnd(5,60) = %d, want 70", got)
	}
	if got := in.StallEnd(5, 350); got != 400 {
		t.Errorf("StallEnd(5,350) = %d, want 400", got)
	}
	if in.StallEnd(5, 100) != 0 || in.StallEnd(5, 400) != 0 || in.StallEnd(6, 60) != 0 {
		t.Error("StallEnd matched outside stall ranges")
	}
	if in.InjFactor(1, 499) != 1 || in.InjFactor(1, 500) != 3 {
		t.Error("InjFactor window wrong")
	}
	if in.DRAMFactor(1, 499) != 1 || in.DRAMFactor(1, 500) != 4 || in.DRAMFactor(0, 1e9) != 1 {
		t.Error("DRAMFactor window wrong")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string
		verify  func(*Plan) bool
	}{
		{"", "", func(p *Plan) bool { return p == nil }},
		{"drop=0.05", "", func(p *Plan) bool {
			return len(p.Rules) == 1 && p.Rules[0].DropProb == 0.05 &&
				p.Rules[0].SrcNode == AnyNode && p.Rules[0].DstNode == AnyNode
		}},
		{"drop=0.03,dup=0.01,delay=0.005:2000", "", func(p *Plan) bool {
			r := p.Rules[0]
			return r.DropProb == 0.03 && r.DupProb == 0.01 && r.DelayProb == 0.005 && r.DelayCycles == 2000
		}},
		{"drop=0.1,kinds=eventu+dram,src=1,dst=2,from=10,until=20", "", func(p *Plan) bool {
			r := p.Rules[0]
			return r.Kinds == (1<<arch.KindEventU|1<<arch.KindDRAMRead|1<<arch.KindDRAMWrite|1<<arch.KindDRAMFetchAdd) &&
				r.SrcNode == 1 && r.DstNode == 2 && r.From == 10 && r.Until == 20
		}},
		{"failstop=3@20000", "", func(p *Plan) bool {
			return len(p.Rules) == 0 && len(p.FailStops) == 1 &&
				p.FailStops[0] == (FailStop{Node: 3, At: 20000})
		}},
		{"stall=17@1000+500", "", func(p *Plan) bool {
			return len(p.Stalls) == 1 && p.Stalls[0] == (Stall{Lane: 17, At: 1000, For: 500})
		}},
		{"degrade=2:3:4@100", "", func(p *Plan) bool {
			return len(p.Degrades) == 1 &&
				p.Degrades[0] == (Degrade{Node: 2, InjFactor: 3, DRAMFactor: 4, From: 100})
		}},
		{"drop=1.5", "probability", nil},
		{"drop=NaN", "probability", nil},
		{"drop", "key=value", nil},
		{"src=1", "no drop/dup/delay", nil},
		{"bogus=1", "unknown clause", nil},
		{"kinds=warp", "unknown kind", nil},
		{"failstop=3", "NODE@CYCLE", nil},
		{"stall=1@2", "LANE@CYCLE+FOR", nil},
		{"degrade=1:0:2", "≥ 1", nil},
	}
	for _, tc := range cases {
		p, err := ParseSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpec(%q): error %v, want substring %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): unexpected error %v", tc.spec, err)
			continue
		}
		if !tc.verify(p) {
			t.Errorf("ParseSpec(%q): plan %+v failed verification", tc.spec, p)
		}
	}
}
