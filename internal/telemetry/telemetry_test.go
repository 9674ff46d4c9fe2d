package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"updown/internal/fault"
	"updown/internal/metrics"
)

// sampleSnapshot builds a fully-populated snapshot so exposition tests
// cover every metric family, including labelled ones.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Seq: 3, SimTime: 40000, MaxTime: 100000, WallNanos: 2_500_000_000,
		Windows: 120, CyclesPerSec: 16000, Pending: 9,
		Totals: metrics.Totals{Events: 123456, Sends: 98765,
			DRAMReads: 11, DRAMWrites: 7, DRAMBytes: 4096, BusyCycles: 777777,
			ShuffleMsgs: 42, ShuffleTuples: 420,
			Faults: fault.Counts{Dropped: 5, Dupped: 2, Delayed: 1, DeadLetters: 3, Failovers: 1, Stalled: 4}},
		Repl: metrics.ReplCounts{FallbackReads: 371, HintsQueued: 48},
		Nodes: []NodeStat{
			{Node: 0, Busy: 1000, InjBacklog: 12},
			{Node: 1, Busy: 900},
		},
		Jobs: []JobStat{
			{ID: 0, Name: "bfs-a", Tenant: "acme", Class: "batch", State: "done",
				FirstLane: 0, Lanes: 64, SubmitCycle: 0, StartCycle: 1, DoneCycle: 30000,
				JobTotals: metrics.JobTotals{Busy: 5000, Events: 600, Sends: 500, DRAMBytes: 2048}, AllocBytes: 65536},
			{ID: 1, Name: "pr-b", Tenant: "globex", Class: "interactive", State: "running",
				FirstLane: 64, Lanes: 64, SubmitCycle: 100, StartCycle: 200, DoneCycle: -1,
				JobTotals: metrics.JobTotals{Busy: 3000, Events: 400, Sends: 300, DRAMBytes: 1024}, AllocBytes: 32768},
		},
		Queries: []QueryStat{
			{Kind: "bfs", Served: 1200000, Shed: 3, Queued: 5, Inflight: 7, SlotsBusy: 6, Slots: 8,
				Batches: 400000, FusedPerBatch: 3, P50Ms: 0.0105, P99Ms: 0.25},
			{Kind: "ppr", Served: 90, Inflight: 8, SlotsBusy: 8, Slots: 8, Batches: 60, FusedPerBatch: 1.5, P50Ms: 0.2, P99Ms: 0.5},
		},
	}
}

// --- Prometheus text exposition (version 0.0.4) decode validation ---

var (
	promName  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabel = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promParse is a strict hand-written parser for the subset of the
// Prometheus text format the telemetry plane emits. It enforces: every
// line is HELP, TYPE or a sample; names and labels are well-formed; every
// sample's metric has a preceding TYPE of gauge or counter declared
// exactly once; values parse as floats. It returns metric -> sample
// count and the value of each "name{labels}" series.
func promParse(t *testing.T, text string) (map[string]int, map[string]float64) {
	t.Helper()
	types := map[string]string{}
	counts := map[string]int{}
	series := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) != 2 || !promName.MatchString(f[0]) || f[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(f) != 2 || !promName.MatchString(f[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if f[1] != "gauge" && f[1] != "counter" {
				t.Fatalf("line %d: unsupported type %q", ln+1, f[1])
			}
			if _, dup := types[f[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, f[0])
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		// Sample: name[{labels}] value
		rest := line
		name := rest
		if i := strings.IndexAny(rest, "{ "); i >= 0 {
			name = rest[:i]
		}
		if !promName.MatchString(name) {
			t.Fatalf("line %d: bad metric name in %q", ln+1, line)
		}
		if _, ok := types[name]; !ok {
			t.Fatalf("line %d: sample for %s before its TYPE", ln+1, name)
		}
		rest = rest[len(name):]
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			for _, pair := range strings.Split(rest[1:end], ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !promLabel.MatchString(k) {
					t.Fatalf("line %d: bad label pair %q", ln+1, pair)
				}
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: label value not quoted: %q", ln+1, pair)
				}
			}
			rest = rest[end+1:]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		counts[name]++
		key := name
		if i := strings.IndexAny(line, "{"); i >= 0 && i == len(name) {
			key = line[:strings.Index(line, "}")+1]
		}
		series[key] = val
	}
	return counts, series
}

func TestWritePromDecodes(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, sampleSnapshot())
	counts, series := promParse(t, b.String())

	if got := series["updown_events_total"]; got != 123456 {
		t.Errorf("updown_events_total = %v, want 123456", got)
	}
	if got := series["updown_run_active"]; got != 1 {
		t.Errorf("updown_run_active = %v, want 1 (not done)", got)
	}
	if got := counts["updown_faults_total"]; got != 6 {
		t.Errorf("updown_faults_total series = %d, want 6 fates", got)
	}
	if got := series[`updown_faults_total{fate="dropped"}`]; got != 5 {
		t.Errorf("dropped faults = %v, want 5", got)
	}
	if got := series["updown_repl_fallback_reads_total"]; got != 371 {
		t.Errorf("fallback reads = %v, want 371", got)
	}
	if got := series[`updown_node_busy_cycles_total{node="1"}`]; got != 900 {
		t.Errorf("node 1 busy = %v, want 900", got)
	}
	if got := counts["updown_node_inj_backlog_cycles"]; got != 2 {
		t.Errorf("inj backlog series = %d, want one per node", got)
	}
	if got := counts["updown_job_state"]; got != 2 {
		t.Errorf("job state series = %d, want one per job", got)
	}
	if got := series[`updown_job_busy_cycles_total{job="1",tenant="globex"}`]; got != 3000 {
		t.Errorf("job 1 busy = %v, want 3000", got)
	}
	if got := series[`updown_job_lanes{job="0",tenant="acme"}`]; got != 64 {
		t.Errorf("job 0 lanes = %v, want 64", got)
	}
	if got := series[`updown_job_alloc_bytes{job="1",tenant="globex"}`]; got != 32768 {
		t.Errorf("job 1 alloc bytes = %v, want 32768", got)
	}
	if got := series[`updown_job_dram_bytes_total{job="0",tenant="acme"}`]; got != 2048 {
		t.Errorf("job 0 dram bytes = %v, want 2048", got)
	}
	for name, want := range map[string]float64{
		`updown_query_served_total{kind="bfs"}`:    1200000,
		`updown_query_batches_total{kind="bfs"}`:   400000,
		`updown_query_inflight{kind="bfs"}`:        7,
		`updown_query_slots_busy{kind="bfs"}`:      6,
		`updown_query_slots_busy{kind="ppr"}`:      8,
		`updown_query_slots{kind="ppr"}`:           8,
		`updown_query_fused_per_batch{kind="ppr"}`: 1.5,
		`updown_query_p50_ms{kind="bfs"}`:          0.0105,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// Counters are written as integers, never in exponent form.
	if !strings.Contains(b.String(), `updown_query_served_total{kind="bfs"} 1200000`+"\n") {
		t.Errorf("served counter not written as a plain integer:\n%s", b.String())
	}
}

// TestWritePromGolden requires the exposition byte for byte: the sample
// snapshot, then a nil one.
func TestWritePromGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "prom.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteProm(&b, sampleSnapshot())
	WriteProm(&b, nil)
	if b.String() != string(want) {
		t.Fatalf("WriteProm differs from testdata/prom.txt; got:\n%s", b.String())
	}
}

func TestWritePromNilSnapshot(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, nil)
	_, series := promParse(t, b.String())
	if got, ok := series["updown_run_active"]; !ok || got != 0 {
		t.Errorf("pre-run scrape: updown_run_active = %v (present=%v), want 0", got, ok)
	}
}

// --- Publisher semantics ---

func TestPublisherBeatPublishDump(t *testing.T) {
	var dumps int
	p := &Publisher{
		MinPeriod: time.Hour, // only dump requests may force publication after the first
		Dump:      func(s *Snapshot) error { dumps++; return nil },
	}
	p.BeginRun()
	if p.Latest() != nil {
		t.Fatal("Latest before any publish should be nil")
	}
	if !p.Beat(100) {
		t.Fatal("first beat should request a publish (no prior publication)")
	}
	p.Publish(&Snapshot{SimTime: 100})
	if s := p.Latest(); s == nil || s.Seq != 0 || s.SimTime != 100 {
		t.Fatalf("first published snapshot = %+v", p.Latest())
	}
	if p.Beat(200) {
		t.Fatal("beat inside MinPeriod should not publish")
	}
	if p.BarrierWanted() {
		t.Fatal("no dump or stop pending: BarrierWanted should be false")
	}

	// Multiple dump requests before the next beat coalesce into one dump.
	p.RequestDump()
	p.RequestDump()
	if !p.BarrierWanted() || !p.Beat(300) {
		t.Fatal("pending dump must force a barrier and a publish")
	}
	p.Publish(&Snapshot{SimTime: 300})
	if dumps != 1 {
		t.Fatalf("dumps = %d, want 1 (coalesced)", dumps)
	}
	if s := p.Latest(); s.Seq != 1 {
		t.Fatalf("Seq = %d, want 1", s.Seq)
	}
	if p.Beat(400) || p.BarrierWanted() {
		t.Fatal("dump served: throttle should hold again")
	}

	if p.StopRequested() {
		t.Fatal("StopRequested before RequestStop")
	}
	p.RequestStop()
	if !p.StopRequested() || !p.BarrierWanted() {
		t.Fatal("RequestStop must latch and request a barrier")
	}

	if wall, sim := p.LastBeat(); wall.IsZero() || sim != 400 {
		t.Fatalf("LastBeat = %v, %d; want recent wall time and sim 400", wall, sim)
	}
}

func TestPublisherRate(t *testing.T) {
	p := &Publisher{MinPeriod: time.Nanosecond}
	p.BeginRun()
	p.Beat(1000)
	p.Publish(&Snapshot{SimTime: 1000})
	time.Sleep(5 * time.Millisecond)
	p.Beat(51000)
	p.Publish(&Snapshot{SimTime: 51000})
	s := p.Latest()
	if s.CyclesPerSec <= 0 {
		t.Fatalf("CyclesPerSec = %v, want > 0 after two spaced publications", s.CyclesPerSec)
	}
	if s.WallNanos <= 0 {
		t.Fatalf("WallNanos = %d, want > 0", s.WallNanos)
	}
}

func TestETASeconds(t *testing.T) {
	s := &Snapshot{SimTime: 4000, CyclesPerSec: 1000}
	if got := s.ETASeconds(9000); got != 5 {
		t.Errorf("ETA = %v, want 5", got)
	}
	if got := s.ETASeconds(4000); got != 0 {
		t.Errorf("ETA at bound = %v, want 0", got)
	}
	if got := (&Snapshot{SimTime: 1, CyclesPerSec: 0}).ETASeconds(100); got != -1 {
		t.Errorf("ETA without rate = %v, want -1", got)
	}
	done := &Snapshot{Done: true, SimTime: 1, CyclesPerSec: 5}
	if got := done.ETASeconds(100); got != 0 {
		t.Errorf("ETA when done = %v, want 0", got)
	}
}

// --- HTTP handlers ---

func TestServerHandlers(t *testing.T) {
	p := &Publisher{}
	srv := httptest.NewServer(NewMux(p))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
	}

	// Before any publication.
	if code, body, _ := get("/status"); code != 200 || strings.TrimSpace(body) != `{"running":false}` {
		t.Fatalf("/status pre-run: code=%d body=%q", code, body)
	}
	if code, body, ct := get("/metrics"); code != 200 || !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics pre-run: code=%d ct=%q body=%q", code, ct, body)
	} else {
		promParse(t, body)
	}
	if code, _, _ := get("/profile"); code != 404 {
		t.Fatalf("/profile without a recorder: code=%d, want 404", code)
	}

	// Publish a snapshot and a profile clone.
	p.BeginRun()
	p.Beat(40000)
	p.Publish(sampleSnapshot())
	p.SetProfile(metrics.New(2, metrics.Options{}).PartialProfile())

	code, body, ct := get("/status")
	if code != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/status: code=%d ct=%q", code, ct)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	var keys []string
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "busy_cycles cycles_per_sec done dram_bytes dram_reads dram_writes "+
		"eta_seconds events faults jobs max_time nodes pending progress_pct queries repl running sends seq "+
		"shuffle_msgs shuffle_tuples sim_time wall_nanos wall_seconds windows"; got != want {
		t.Errorf("/status keys:\n got %s\nwant %s", got, want)
	}
	if st["running"] != true {
		t.Errorf("/status running = %v, want true", st["running"])
	}
	if st["progress_pct"].(float64) != 40 {
		t.Errorf("/status progress_pct = %v, want 40", st["progress_pct"])
	}
	if st["sim_time"].(float64) != 40000 {
		t.Errorf("/status sim_time = %v, want 40000", st["sim_time"])
	}
	jobs, ok := st["jobs"].([]any)
	if !ok || len(jobs) != 2 {
		t.Fatalf("/status jobs = %v, want 2 rows", st["jobs"])
	}
	row := jobs[1].(map[string]any)
	if row["tenant"] != "globex" || row["state"] != "running" || row["lanes"].(float64) != 64 {
		t.Errorf("/status job row = %v, want globex/running/64 lanes", row)
	}

	queries, ok := st["queries"].([]any)
	if !ok || len(queries) != 2 {
		t.Fatalf("/status queries = %v, want 2 rows", st["queries"])
	}
	if row := queries[0].(map[string]any); row["kind"] != "bfs" || row["slots_busy"].(float64) != 6 || row["slots"].(float64) != 8 {
		t.Errorf("/status query row = %v, want bfs with 6 of 8 slots busy", row)
	}

	if code, body, _ := get("/metrics"); code != 200 {
		t.Fatalf("/metrics: code=%d", code)
	} else if _, series := promParse(t, body); series["updown_events_total"] != 123456 {
		t.Errorf("/metrics events = %v, want 123456", series["updown_events_total"])
	}

	if code, body, ct := get("/profile"); code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/profile: code=%d ct=%q", code, ct)
	} else if !strings.Contains(body, "profile: interval=") {
		t.Errorf("/profile body does not look like a profile:\n%s", body)
	}

	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}
}

// --- Watchdog ---

func TestWatchdogDumpAndRearm(t *testing.T) {
	dir := t.TempDir()
	p := &Publisher{}
	p.BeginRun()
	p.Beat(1234)
	p.Publish(&Snapshot{SimTime: 1234, MaxTime: 10000})
	p.SetProfile(metrics.New(1, metrics.Options{}).PartialProfile())

	stalls := make(chan struct{}, 4)
	w := &Watchdog{
		P: p, Stall: 60 * time.Millisecond, Dir: dir,
		OnStall: func() { stalls <- struct{}{} },
	}
	w.Start()
	defer w.Stop()

	waitStall := func(what string) {
		t.Helper()
		select {
		case <-stalls:
		case <-time.After(10 * time.Second):
			t.Fatalf("watchdog never fired (%s)", what)
		}
	}
	waitStall("initial silence")

	for _, f := range []string{"stall-stacks.txt", "stall-status.json", "stall-profile.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing dump file: %v", err)
			continue
		}
		switch f {
		case "stall-stacks.txt":
			if !strings.Contains(string(b), "goroutine") {
				t.Errorf("%s does not contain goroutine stacks", f)
			}
		case "stall-status.json":
			var st map[string]any
			if err := json.Unmarshal(b, &st); err != nil {
				t.Errorf("%s is not JSON: %v", f, err)
			} else if st["sim_time"].(float64) != 1234 {
				t.Errorf("%s sim_time = %v, want 1234", f, st["sim_time"])
			}
		case "stall-profile.txt":
			if len(b) == 0 {
				t.Errorf("%s is empty", f)
			}
		}
	}

	// One dump per episode: continued silence must not re-fire...
	select {
	case <-stalls:
		t.Fatal("watchdog fired twice within one stall episode")
	case <-time.After(200 * time.Millisecond):
	}
	// ...but a fresh heartbeat re-arms it for the next episode.
	p.Touch()
	waitStall("second episode after re-arm")
}

func TestWatchdogIgnoresFinishedRun(t *testing.T) {
	p := &Publisher{}
	p.BeginRun()
	p.Beat(5000)
	p.Publish(&Snapshot{Done: true, SimTime: 5000})
	p.FinishRun()

	fired := make(chan struct{}, 1)
	w := &Watchdog{P: p, Stall: 40 * time.Millisecond, Dir: t.TempDir(),
		OnStall: func() { fired <- struct{}{} }}
	w.Start()
	defer w.Stop()
	select {
	case <-fired:
		t.Fatal("watchdog fired after the run finished")
	case <-time.After(250 * time.Millisecond):
	}
}

func TestWatchdogZeroStallIsDisabled(t *testing.T) {
	w := &Watchdog{P: &Publisher{}}
	w.Start() // no-op
	w.Stop()  // must not hang or panic
}
