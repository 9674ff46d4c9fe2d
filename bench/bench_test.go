package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json is generated from the registry (`bench manifest`); a
// metric added to one and not the other fails here.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(g, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Fatalf("BENCHMARK.json differs from `bench manifest`; regenerate it:\n%s", g)
	}
}

func TestBenchmarkJSONWithinContractLimits(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range bj.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range bj.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range bj.PerLayer {
		check(m.Name, m.Unit)
	}
}

// The -quick configuration must emit, per workload and pass, exactly the
// metrics BENCHMARK.json names for that pass, once each, finite, with the
// declared unit, and every output must validate against the host oracles.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range bj.Workloads {
		fps := map[bool]string{}
		for _, traced := range []bool{false, true} {
			p, err := runPass(w.Name, traced, quickSizes, 42, 0)
			if err != nil {
				t.Fatalf("%s %s pass: %v", w.Name, passName(traced), err)
			}
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s %s pass: correct=%v failed=%d attempted=%d notes=%q",
					w.Name, passName(traced), p.Correct, p.Failed, p.Attempted, p.Notes)
			}
			fps[traced] = p.Fingerprint
			line := p.line()
			if len(line.Metrics) != len(want[traced]) {
				t.Errorf("%s %s pass: %d metrics, BENCHMARK.json names %d", w.Name, passName(traced), len(line.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				m, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s %s pass: %s not emitted", w.Name, passName(traced), name)
				case m.Unit != unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v is not finite", w.Name, name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s: result line does not encode: %v", w.Name, err)
			}
			if traced && len(p.Spans) == 0 {
				t.Errorf("%s: traced pass recorded no spans", w.Name)
			}
		}
		if fps[false] != fps[true] {
			t.Errorf("%s: traced fingerprint %s differs from measured %s", w.Name, fps[true], fps[false])
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort
		}
		return v
	}
	if v, ok := percentile(seq(200), 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v ok=%v, want 190 with 10 samples beyond it", v, ok)
	}
	if _, ok := percentile(seq(199), 95); ok {
		t.Error("p95 of 199 samples accepted with 9 samples beyond it")
	}
	if _, ok := percentile(seq(200), 99); ok {
		t.Error("p99 of 200 samples accepted with 1 sample beyond it")
	}
	if v, ok := percentile(seq(1), 95); ok || v != 1 {
		t.Errorf("p95 of one sample = %v ok=%v, want the sample, flagged", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples accepted")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4):
// for 1..10 the cut points are 2.75, 5.5, 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestJudgeBounds(t *testing.T) {
	mv := func(v float64, samples ...float64) metricValue {
		return metricValue{Value: v, Samples: samples, N: len(samples)}
	}
	cases := []struct {
		metric string
		a, b   metricValue
		want   verdict
	}{
		// run_wall_s: 10% relative.
		{"run_wall_s", mv(10), mv(10.9), same},
		{"run_wall_s", mv(10), mv(11.1), worse},
		{"run_wall_s", mv(10), mv(8.9), better},
		// setup_s: worse only beyond 15% AND beyond 0.15 s.
		{"setup_s", mv(0.2), mv(0.3), same},
		{"setup_s", mv(2.0), mv(2.25), same},
		{"setup_s", mv(2.0), mv(2.4), worse},
		// Simulated metrics: identical is same; otherwise 1%.
		{"sim_cycles", mv(43458), mv(43458), same},
		{"sim_cycles", mv(43458), mv(43900), worse},
		{"sim_throughput", mv(100), mv(98), worse}, // higher is better
		{"sim_throughput", mv(100), mv(102), better},
		// slo_miss_frac: +0.01 absolute; fail_frac: any increase.
		{"slo_miss_frac", mv(0), mv(0.005), same},
		{"slo_miss_frac", mv(0), mv(0.02), worse},
		{"fail_frac", mv(0), mv(0.0001), worse},
		{"fail_frac", mv(0.01), mv(0), better},
		// Spread wider than the bound: unresolved unless the sides separate.
		{"run_wall_s", mv(10, 8, 10, 12, 9, 11), mv(11.5, 9, 11.5, 14, 10, 13), unresolved},
		{"run_wall_s", mv(10, 8, 10, 12, 9, 11), mv(7, 6, 7, 7.5, 6.5, 7.2), better},
		{"run_wall_s", mv(10, 8, 10, 12, 9, 11), mv(15, 13, 15, 18, 14, 16), worse},
		// Noisy but tiny set-ups cannot regress past the 0.15 s floor.
		{"setup_s", mv(0.03, 0.02, 0.03, 0.05, 0.03), mv(0.04, 0.03, 0.04, 0.07, 0.04), same},
	}
	for _, c := range cases {
		if got := judge(defByName(c.metric), c.a, c.b); got != c.want {
			t.Errorf("%s: A=%v B=%v judged %s, want %s", c.metric, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "rep", StartUs: 0, EndUs: 100e6, Parent: -1},
		{Name: "graph.gen", StartUs: 0, EndUs: 30e6, Parent: 0},
		{Name: "apps.run", StartUs: 40e6, EndUs: 90e6, Parent: 0},
		{Name: "gasmem.load", StartUs: 50e6, EndUs: 60e6, Parent: 2},
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	for name, want := range map[string][2]float64{"rep": {100, 20}, "graph.gen": {30, 30}, "apps.run": {50, 40}, "gasmem.load": {10, 10}} {
		if s := got[name]; math.Abs(s.Total-want[0]) > 1e-9 || math.Abs(s.Self-want[1]) > 1e-9 {
			t.Errorf("%s: total %v self %v, want %v", name, s.Total, s.Self, want)
		}
	}
}
