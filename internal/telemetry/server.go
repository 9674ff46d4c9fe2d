// HTTP exposition of the telemetry plane. Handlers only read the
// Publisher's atomically-published snapshot and profile clone, so a
// scrape can never touch live simulation state: serving traffic while
// the engine runs is free of both races and determinism hazards.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// NewMux builds the telemetry HTTP handler tree:
//
//	/metrics  Prometheus text exposition (version 0.0.4)
//	/status   the latest Snapshot as JSON, plus derived wall/ETA fields
//	/profile  the partial metrics profile so far, as Profile.WriteText
//	/debug/pprof/...  the standard Go profiler endpoints
func NewMux(p *Publisher) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		WriteProm(&b, p.Latest())
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s := p.Latest()
		if s == nil {
			fmt.Fprintln(w, `{"running":false}`)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(statusView(s))
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		prof := p.Profile()
		if prof == nil {
			http.Error(w, "no profile yet (is -profile enabled?)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		prof.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the telemetry HTTP server on addr in a background
// goroutine and returns it (for Shutdown/Close). The listener is bound
// synchronously so "address in use" and friends surface immediately.
func Serve(addr string, p *Publisher) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(p)}
	go srv.Serve(ln)
	return srv, nil
}

// status is the /status JSON document: the snapshot plus derived
// human-oriented fields.
type status struct {
	Running     bool    `json:"running"`
	WallSeconds float64 `json:"wall_seconds"`
	ProgressPct float64 `json:"progress_pct"`
	ETASeconds  float64 `json:"eta_seconds"`
	*Snapshot
}

func statusView(s *Snapshot) status {
	v := status{Running: !s.Done, Snapshot: s}
	v.WallSeconds = float64(s.WallNanos) / 1e9
	if s.MaxTime > 0 && s.SimTime >= 0 {
		v.ProgressPct = 100 * float64(s.SimTime) / float64(s.MaxTime)
	}
	v.ETASeconds = s.ETASeconds(s.MaxTime)
	return v
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// A nil snapshot (nothing published yet) renders only the run-state
// gauge, so a scrape before the first window is still well-formed.
func WriteProm(b *strings.Builder, s *Snapshot) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	if s == nil {
		gauge("updown_run_active", "1 while a simulation run is executing", 0)
		return
	}
	active := 1.0
	if s.Done {
		active = 0
	}
	gauge("updown_run_active", "1 while a simulation run is executing", active)
	gauge("updown_sim_cycles", "current simulated time in cycles", float64(s.SimTime))
	gauge("updown_sim_max_cycles", "configured simulated-time bound", float64(s.MaxTime))
	gauge("updown_wall_seconds", "wall seconds since the run started", float64(s.WallNanos)/1e9)
	gauge("updown_cycles_per_second", "simulated cycles advanced per wall second", s.CyclesPerSec)
	gauge("updown_pending_messages", "messages queued in the engine", float64(s.Pending))
	counter("updown_snapshots_total", "telemetry snapshots published", s.Seq+1)
	counter("updown_windows_total", "engine window barriers / scheduler rounds", s.Windows)
	counter("updown_events_total", "executed simulation events", s.Events)
	counter("updown_sends_total", "messages injected into the network", s.Sends)
	counter("updown_busy_cycles_total", "sum of actor occupancy cycles", s.BusyCycles)
	counter("updown_dram_reads_total", "DRAM read services", s.DRAMReads)
	counter("updown_dram_writes_total", "DRAM write services", s.DRAMWrites)
	counter("updown_dram_bytes_total", "DRAM bytes served", s.DRAMBytes)
	counter("updown_shuffle_msgs_total", "shuffle messages entering the inter-node network", s.ShuffleMsgs)
	counter("updown_shuffle_tuples_total", "logical shuffle tuples emitted", s.ShuffleTuples)
	fmt.Fprintf(b, "# HELP updown_faults_total injected faults by fate\n# TYPE updown_faults_total counter\n")
	for _, f := range []struct {
		fate string
		v    int64
	}{
		{"dropped", s.Faults.Dropped},
		{"dupped", s.Faults.Dupped},
		{"delayed", s.Faults.Delayed},
		{"dead_letter", s.Faults.DeadLetters},
		{"failover", s.Faults.Failovers},
		{"stalled", s.Faults.Stalled},
	} {
		fmt.Fprintf(b, "updown_faults_total{fate=%q} %d\n", f.fate, f.v)
	}
	counter("updown_repl_fallback_reads_total", "reads served by a non-primary replica", s.Repl.FallbackReads)
	gauge("updown_repl_hints_queued", "hinted-handoff records queued for backfill", float64(s.Repl.HintsQueued))
	fmt.Fprintf(b, "# HELP updown_node_busy_cycles_total cumulative busy cycles per node\n# TYPE updown_node_busy_cycles_total counter\n")
	for i := range s.Nodes {
		n := &s.Nodes[i]
		fmt.Fprintf(b, "updown_node_busy_cycles_total{node=\"%d\"} %d\n", n.Node, n.Busy)
	}
	fmt.Fprintf(b, "# HELP updown_node_inj_backlog_cycles injection-port backlog per node in cycles\n# TYPE updown_node_inj_backlog_cycles gauge\n")
	for i := range s.Nodes {
		n := &s.Nodes[i]
		fmt.Fprintf(b, "updown_node_inj_backlog_cycles{node=\"%d\"} %d\n", n.Node, n.InjBacklog)
	}
	if len(s.Jobs) > 0 {
		fmt.Fprintf(b, "# HELP updown_job_state scheduler job state (1 = listed state is current)\n# TYPE updown_job_state gauge\n")
		for i := range s.Jobs {
			j := &s.Jobs[i]
			fmt.Fprintf(b, "updown_job_state{job=\"%d\",tenant=%q,class=%q,state=%q} 1\n",
				j.ID, j.Tenant, j.Class, j.State)
		}
		fmt.Fprintf(b, "# HELP updown_job_lanes lanes held by each scheduler job\n# TYPE updown_job_lanes gauge\n")
		for i := range s.Jobs {
			j := &s.Jobs[i]
			fmt.Fprintf(b, "updown_job_lanes{job=\"%d\",tenant=%q} %d\n", j.ID, j.Tenant, j.Lanes)
		}
		fmt.Fprintf(b, "# HELP updown_job_busy_cycles_total busy cycles attributed to each scheduler job\n# TYPE updown_job_busy_cycles_total counter\n")
		for i := range s.Jobs {
			j := &s.Jobs[i]
			fmt.Fprintf(b, "updown_job_busy_cycles_total{job=\"%d\",tenant=%q} %d\n", j.ID, j.Tenant, j.Busy)
		}
		fmt.Fprintf(b, "# HELP updown_job_events_total events attributed to each scheduler job\n# TYPE updown_job_events_total counter\n")
		for i := range s.Jobs {
			j := &s.Jobs[i]
			fmt.Fprintf(b, "updown_job_events_total{job=\"%d\",tenant=%q} %d\n", j.ID, j.Tenant, j.Events)
		}
		fmt.Fprintf(b, "# HELP updown_job_dram_bytes_total DRAM bytes attributed to each scheduler job\n# TYPE updown_job_dram_bytes_total counter\n")
		for i := range s.Jobs {
			j := &s.Jobs[i]
			fmt.Fprintf(b, "updown_job_dram_bytes_total{job=\"%d\",tenant=%q} %d\n", j.ID, j.Tenant, j.DRAMBytes)
		}
		fmt.Fprintf(b, "# HELP updown_job_alloc_bytes DRAM footprint allocated by each scheduler job's build phase\n# TYPE updown_job_alloc_bytes gauge\n")
		for i := range s.Jobs {
			j := &s.Jobs[i]
			fmt.Fprintf(b, "updown_job_alloc_bytes{job=\"%d\",tenant=%q} %d\n", j.ID, j.Tenant, j.AllocBytes)
		}
	}
	if len(s.Queries) > 0 {
		for _, f := range queryFamilies {
			fmt.Fprintf(b, "# HELP updown_query_%s %s\n# TYPE updown_query_%s %s\n", f.name, f.help, f.name, f.typ)
			for i := range s.Queries {
				fmt.Fprintf(b, "updown_query_%s{kind=%q} %v\n", f.name, s.Queries[i].Kind, f.val(&s.Queries[i]))
			}
		}
	}
}

// queryFamilies are the per-kind updown_query_* series of a QueryStat.
var queryFamilies = []struct {
	name, typ, help string
	val             func(q *QueryStat) any
}{
	{"served_total", "counter", "point queries resolved per kind", func(q *QueryStat) any { return q.Served }},
	{"shed_total", "counter", "point queries shed at admission per kind", func(q *QueryStat) any { return q.Shed }},
	{"batches_total", "counter", "launch groups (boundaries at which queries were posted) per kind", func(q *QueryStat) any { return q.Batches }},
	{"queued", "gauge", "waiting-room depth per kind", func(q *QueryStat) any { return q.Queued }},
	{"inflight", "gauge", "queries seeded in engine slots and not yet harvested per kind", func(q *QueryStat) any { return q.Inflight }},
	{"slots_busy", "gauge", "engine slots running a query per kind", func(q *QueryStat) any { return q.SlotsBusy }},
	{"slots", "gauge", "engine slots per kind", func(q *QueryStat) any { return q.Slots }},
	{"fused_per_batch", "gauge", "mean queries per launch group per kind", func(q *QueryStat) any { return q.FusedPerBatch }},
	{"p50_ms", "gauge", "median query sojourn latency in simulated ms", func(q *QueryStat) any { return q.P50Ms }},
	{"p99_ms", "gauge", "tail query sojourn latency in simulated ms", func(q *QueryStat) any { return q.P99Ms }},
}
