package metrics

// Per-job attribution: a host-side scheduler running several jobs
// concurrently on disjoint node partitions binds each node to the job
// occupying it, and the shard views then charge every event, send, and
// DRAM service on that node to the job's counters. Attribution is by
// node rather than by message tag, which costs one slice lookup on the
// hot path (and nothing at all when no job was ever bound) and is exact
// for node-granular partitions: a job's events execute only on its own
// lanes, and its DRAM traffic lands only on its own controllers.
//
// Bind/Unbind are host-side operations for quiesced points between Run
// calls — exactly when a scheduler places or retires jobs. The shard
// workers observe the updated table through the engine's run-start
// synchronization.

// JobTotals aggregates the activity charged to one job.
type JobTotals struct {
	// Busy is the sum of charged execution cycles on the job's lanes.
	Busy int64 `json:"busy_cycles"`
	// Events counts executed messages (events, DRAM replies, timeouts).
	Events int64 `json:"events"`
	// Sends counts message injections from the job's nodes; XSends the
	// cross-node subset.
	Sends  int64 `json:"sends"`
	XSends int64 `json:"xsends"`
	// DRAMBytes counts bytes moved by the job's memory controllers.
	DRAMBytes int64 `json:"dram_bytes"`
}

// Add accumulates o into t.
func (t *JobTotals) Add(o JobTotals) {
	t.Busy += o.Busy
	t.Events += o.Events
	t.Sends += o.Sends
	t.XSends += o.XSends
	t.DRAMBytes += o.DRAMBytes
}

// BindJob attributes nodes [firstNode, firstNode+numNodes) to the given
// job ID (small non-negative integer). Quiesced host-side only.
func (r *Recorder) BindJob(job, firstNode, numNodes int) {
	if r.jobOfNode == nil {
		r.jobOfNode = make([]int32, len(r.nodes))
		for i := range r.jobOfNode {
			r.jobOfNode[i] = -1
		}
	}
	for n := firstNode; n < firstNode+numNodes && n < len(r.jobOfNode); n++ {
		r.jobOfNode[n] = int32(job)
	}
}

// UnbindNodes releases the job binding of nodes [firstNode,
// firstNode+numNodes); subsequent activity there is unattributed until
// the next BindJob. Quiesced host-side only.
func (r *Recorder) UnbindNodes(firstNode, numNodes int) {
	if r.jobOfNode == nil {
		return
	}
	for n := firstNode; n < firstNode+numNodes && n < len(r.jobOfNode); n++ {
		r.jobOfNode[n] = -1
	}
}

// JobTotals merges the per-shard counters charged to one job. Valid at
// quiesced points (between Run calls, or inside a telemetry publish
// hook, which the publisher invokes with every shard parked at a
// barrier).
func (r *Recorder) JobTotals(job int) JobTotals {
	var t JobTotals
	for _, v := range r.views {
		if job < len(v.jobs) {
			t.Add(v.jobs[job])
		}
	}
	return t
}

// job returns the shard-local accumulator for a job ID, growing the
// slice on first touch.
func (v *ShardView) job(j int32) *JobTotals {
	for len(v.jobs) <= int(j) {
		v.jobs = append(v.jobs, JobTotals{})
	}
	return &v.jobs[j]
}
