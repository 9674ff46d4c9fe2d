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

// WriteProm renders the snapshot in Prometheus text exposition format:
// each row type's family table in turn. A nil snapshot (nothing
// published yet) renders only the run-state gauge, so a scrape before the
// first window is still well-formed.
func WriteProm(b *strings.Builder, s *Snapshot) {
	if s == nil {
		render(b, runFamilies[:1], []Snapshot{{Done: true}})
		return
	}
	one := []Snapshot{*s}
	render(b, runFamilies, one)
	f := s.Faults
	render(b, faultFamilies, []fate{{"dropped", f.Dropped}, {"dupped", f.Dupped}, {"delayed", f.Delayed},
		{"dead_letter", f.DeadLetters}, {"failover", f.Failovers}, {"stalled", f.Stalled}})
	render(b, replFamilies, one)
	render(b, nodeFamilies, s.Nodes)
	if len(s.Jobs) > 0 {
		render(b, jobFamilies, s.Jobs)
	}
	if len(s.Queries) > 0 {
		render(b, queryFamilies, s.Queries)
	}
}

// family is one metric family over rows of type R: a HELP/TYPE header,
// then one sample per row with the row's labels (none when labels is
// nil). val's dynamic type sets the sample's format: integers print as
// integers, floats as %g.
type family[R any] struct {
	name, typ, help string
	labels          func(r *R) string
	val             func(r *R) any
}

// render writes each family's header and one sample per row.
func render[R any](b *strings.Builder, fams []family[R], rows []R) {
	for _, f := range fams {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i := range rows {
			labels := ""
			if f.labels != nil {
				labels = f.labels(&rows[i])
			}
			fmt.Fprintf(b, "%s%s %v\n", f.name, labels, f.val(&rows[i]))
		}
	}
}

// fate is one injected-fault outcome's count.
type fate struct {
	name string
	n    int64
}

var runFamilies = []family[Snapshot]{
	{"updown_run_active", "gauge", "1 while a simulation run is executing", nil, func(s *Snapshot) any {
		if s.Done {
			return 0.0
		}
		return 1.0
	}},
	{"updown_sim_cycles", "gauge", "current simulated time in cycles", nil, func(s *Snapshot) any { return float64(s.SimTime) }},
	{"updown_sim_max_cycles", "gauge", "configured simulated-time bound", nil, func(s *Snapshot) any { return float64(s.MaxTime) }},
	{"updown_wall_seconds", "gauge", "wall seconds since the run started", nil, func(s *Snapshot) any { return float64(s.WallNanos) / 1e9 }},
	{"updown_cycles_per_second", "gauge", "simulated cycles advanced per wall second", nil, func(s *Snapshot) any { return s.CyclesPerSec }},
	{"updown_pending_messages", "gauge", "messages queued in the engine", nil, func(s *Snapshot) any { return float64(s.Pending) }},
	{"updown_snapshots_total", "counter", "telemetry snapshots published", nil, func(s *Snapshot) any { return s.Seq + 1 }},
	{"updown_windows_total", "counter", "engine window barriers / scheduler rounds", nil, func(s *Snapshot) any { return s.Windows }},
	{"updown_events_total", "counter", "executed simulation events", nil, func(s *Snapshot) any { return s.Events }},
	{"updown_sends_total", "counter", "messages injected into the network", nil, func(s *Snapshot) any { return s.Sends }},
	{"updown_busy_cycles_total", "counter", "sum of actor occupancy cycles", nil, func(s *Snapshot) any { return s.BusyCycles }},
	{"updown_dram_reads_total", "counter", "DRAM read services", nil, func(s *Snapshot) any { return s.DRAMReads }},
	{"updown_dram_writes_total", "counter", "DRAM write services", nil, func(s *Snapshot) any { return s.DRAMWrites }},
	{"updown_dram_bytes_total", "counter", "DRAM bytes served", nil, func(s *Snapshot) any { return s.DRAMBytes }},
	{"updown_shuffle_msgs_total", "counter", "shuffle messages entering the inter-node network", nil, func(s *Snapshot) any { return s.ShuffleMsgs }},
	{"updown_shuffle_tuples_total", "counter", "logical shuffle tuples emitted", nil, func(s *Snapshot) any { return s.ShuffleTuples }},
}

var faultFamilies = []family[fate]{
	{"updown_faults_total", "counter", "injected faults by fate", func(f *fate) string { return fmt.Sprintf("{fate=%q}", f.name) }, func(f *fate) any { return f.n }},
}

var replFamilies = []family[Snapshot]{
	{"updown_repl_fallback_reads_total", "counter", "reads served by a non-primary replica", nil, func(s *Snapshot) any { return s.Repl.FallbackReads }},
	{"updown_repl_hints_queued", "gauge", "hinted-handoff records queued for backfill", nil, func(s *Snapshot) any { return float64(s.Repl.HintsQueued) }},
}

func nodeLabel(n *NodeStat) string { return fmt.Sprintf("{node=\"%d\"}", n.Node) }

var nodeFamilies = []family[NodeStat]{
	{"updown_node_busy_cycles_total", "counter", "cumulative busy cycles per node", nodeLabel, func(n *NodeStat) any { return n.Busy }},
	{"updown_node_inj_backlog_cycles", "gauge", "injection-port backlog per node in cycles", nodeLabel, func(n *NodeStat) any { return n.InjBacklog }},
}

func jobLabel(j *JobStat) string { return fmt.Sprintf("{job=\"%d\",tenant=%q}", j.ID, j.Tenant) }

var jobFamilies = []family[JobStat]{
	{"updown_job_state", "gauge", "scheduler job state (1 = listed state is current)", func(j *JobStat) string {
		return fmt.Sprintf("{job=\"%d\",tenant=%q,class=%q,state=%q}", j.ID, j.Tenant, j.Class, j.State)
	}, func(*JobStat) any { return 1 }},
	{"updown_job_lanes", "gauge", "lanes held by each scheduler job", jobLabel, func(j *JobStat) any { return j.Lanes }},
	{"updown_job_busy_cycles_total", "counter", "busy cycles attributed to each scheduler job", jobLabel, func(j *JobStat) any { return j.Busy }},
	{"updown_job_events_total", "counter", "events attributed to each scheduler job", jobLabel, func(j *JobStat) any { return j.Events }},
	{"updown_job_dram_bytes_total", "counter", "DRAM bytes attributed to each scheduler job", jobLabel, func(j *JobStat) any { return j.DRAMBytes }},
	{"updown_job_alloc_bytes", "gauge", "DRAM footprint allocated by each scheduler job's build phase", jobLabel, func(j *JobStat) any { return j.AllocBytes }},
}

func queryLabel(q *QueryStat) string { return fmt.Sprintf("{kind=%q}", q.Kind) }

var queryFamilies = []family[QueryStat]{
	{"updown_query_served_total", "counter", "point queries resolved per kind", queryLabel, func(q *QueryStat) any { return q.Served }},
	{"updown_query_shed_total", "counter", "point queries shed at admission per kind", queryLabel, func(q *QueryStat) any { return q.Shed }},
	{"updown_query_batches_total", "counter", "launch groups (boundaries at which queries were posted) per kind", queryLabel, func(q *QueryStat) any { return q.Batches }},
	{"updown_query_queued", "gauge", "waiting-room depth per kind", queryLabel, func(q *QueryStat) any { return q.Queued }},
	{"updown_query_inflight", "gauge", "queries seeded in engine slots and not yet harvested per kind", queryLabel, func(q *QueryStat) any { return q.Inflight }},
	{"updown_query_slots_busy", "gauge", "engine slots running a query per kind", queryLabel, func(q *QueryStat) any { return q.SlotsBusy }},
	{"updown_query_slots", "gauge", "engine slots per kind", queryLabel, func(q *QueryStat) any { return q.Slots }},
	{"updown_query_fused_per_batch", "gauge", "mean queries per launch group per kind", queryLabel, func(q *QueryStat) any { return q.FusedPerBatch }},
	{"updown_query_p50_ms", "gauge", "median query sojourn latency in simulated ms", queryLabel, func(q *QueryStat) any { return q.P50Ms }},
	{"updown_query_p99_ms", "gauge", "tail query sojourn latency in simulated ms", queryLabel, func(q *QueryStat) any { return q.P99Ms }},
}
