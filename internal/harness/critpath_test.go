package harness

import (
	"bytes"
	"runtime"
	"testing"

	"updown"
	"updown/internal/apps/pagerank"
	"updown/internal/graph"
	"updown/internal/metrics"
)

// runPRTraced runs one Figure-9 PageRank point (rmat s9, 2 nodes) with
// full tracing and returns the machine plus its rendered analyses.
func runPRTraced(t *testing.T, shards int) (*updown.Machine, *metrics.CritPath, string, string, []byte) {
	t.Helper()
	g, err := graph.BuildPreset("rmat", 9, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	split := graph.SplitWith(g, graph.SplitOptions{MaxDeg: 64, Seed: graph.DefaultShuffleSeed, SpreadInEdges: true})
	m, err := updown.New(updown.Config{Nodes: 2, Shards: shards, MaxTime: 1 << 40,
		Trace: &metrics.TraceOptions{Spans: true, Causal: true}})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.LoadToGAS(m.GAS, split, graph.DefaultPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	app, err := pagerank.New(m, dg, pagerank.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	app.InitValues()
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	cp := m.Trace.CriticalPath()
	var trace bytes.Buffer
	if err := metrics.WriteTraceFile(&trace, m.Arch, nil, m.Trace); err != nil {
		t.Fatal(err)
	}
	return m, cp, m.Trace.Flows().String(m.Arch), m.Trace.Latencies().String(), trace.Bytes()
}

// TestFig9PRCriticalPath asserts the tentpole invariants on a real
// Figure-9 PageRank point: the zero-queueing critical path never exceeds
// the makespan, its per-component attribution sums exactly to its length,
// and the observed tail chain decomposes exactly as well.
func TestFig9PRCriticalPath(t *testing.T) {
	_, cp, _, _, _ := runPRTraced(t, 1)
	if cp.Length <= 0 || cp.Events <= 0 {
		t.Fatalf("degenerate critical path: %+v", cp)
	}
	if cp.Length > cp.Makespan {
		t.Errorf("critical path %d exceeds makespan %d", cp.Length, cp.Makespan)
	}
	if got := cp.Components.Total(); got != cp.Length {
		t.Errorf("zero-queue components sum to %d, want Length %d (%+v)", got, cp.Length, cp.Components)
	}
	if cp.Components.Queue != 0 || cp.Components.Wait != 0 {
		t.Errorf("zero-queue path carries queue/wait components: %+v", cp.Components)
	}
	if got := cp.Observed.Total(); got != cp.ObservedLength {
		t.Errorf("observed components sum to %d, want ObservedLength %d (%+v)", got, cp.ObservedLength, cp.Observed)
	}
	if pct := cp.CritPct(); pct <= 0 || pct > 1 {
		t.Errorf("crit%% = %v outside (0, 1]", pct)
	}
	nEvents := 0
	for _, k := range cp.Kinds {
		nEvents += int(k.Count)
	}
	if nEvents != cp.Events {
		t.Errorf("kind counts sum to %d, want Events %d", nEvents, cp.Events)
	}
}

// TestCritPathShardDeterminism: critical-path, flow, latency and span-trace
// output must be byte-identical at shard counts 1, 2 and GOMAXPROCS.
func TestCritPathShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism check")
	}
	_, cp1, flows1, lat1, trace1 := runPRTraced(t, 1)
	ref := cp1.String()
	for _, shards := range []int{2, runtime.GOMAXPROCS(0)} {
		if shards < 2 {
			continue
		}
		_, cp, flows, lat, trace := runPRTraced(t, shards)
		if got := cp.String(); got != ref {
			t.Errorf("shards=%d: critical path differs:\n%s\nvs\n%s", shards, got, ref)
		}
		if flows != flows1 {
			t.Errorf("shards=%d: flow matrix differs", shards)
		}
		if lat != lat1 {
			t.Errorf("shards=%d: latency report differs", shards)
		}
		if !bytes.Equal(trace, trace1) {
			t.Errorf("shards=%d: span trace JSON differs", shards)
		}
	}
}
