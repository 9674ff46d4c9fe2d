package harness

import (
	"fmt"
	"io"
	"strconv"

	"updown"
	"updown/internal/apps/ingest"
	"updown/internal/apps/match"
	"updown/internal/arch"
	"updown/internal/kvmsr"
	"updown/internal/tform"
)

// Fig10Options configures the ingestion scaling sweep.
type Fig10Options struct {
	// BaseRecords is the "data 1x" record count.
	BaseRecords int
	// Multipliers lists the dataset sizes (the paper's data 0.01x..2x).
	Multipliers []float64
	// Nodes is the machine sweep.
	Nodes []int
	// BlockBytes is the parallel-file block size.
	BlockBytes int
	// Seed drives the CSV generator.
	Seed uint64
	// Shards, Profile, CritPath, MaxTime and Progress are the shared
	// sweep options (see sweep). Both ingestion phases are map-only, so
	// there is no shuffle to coalesce.
	Shards            int
	Profile, CritPath bool
	MaxTime           arch.Cycles
	Progress          io.Writer
}

// Fig10Ingestion regenerates Figure 10 / Table 11: TFORM+KVMSR ingestion
// throughput scaling. The metric is mega-records per second of parse plus
// graph insertion.
func Fig10Ingestion(opt Fig10Options) ([]*Table, error) {
	orDefault(&opt.BaseRecords, 10000)
	orDefaultList(&opt.Multipliers, 0.1, 1, 2)
	orDefaultList(&opt.Nodes, 1, 2, 4, 8)
	orDefault(&opt.BlockBytes, 512)
	orDefault(&opt.Seed, 7)
	if err := Validate(0, 0, Positive("records", opt.BaseRecords), Positive("mults", opt.Multipliers...),
		Positive("nodes", opt.Nodes...), Positive("block", opt.BlockBytes), Addressable(arch.DefaultMachine(0), opt.Nodes...)); err != nil {
		return nil, err
	}
	s := sweep{Shards: opt.Shards, Profile: opt.Profile, CritPath: opt.CritPath,
		MaxTime: opt.MaxTime, Progress: opt.Progress}
	var tables []*Table
	for _, mult := range opt.Multipliers {
		n := max(int(float64(opt.BaseRecords)*mult), 1)
		data, _ := tform.GenCSV(n, 1<<24, 8, opt.Seed)
		tb := &Table{
			Title:      "Figure 10 / Table 11: Ingestion (TFORM + graph insert)",
			Workload:   fmt.Sprintf("data %gx (%d records, %d bytes)", mult, n, len(data)),
			MetricName: "MRec/s",
		}
		for _, nodes := range opt.Nodes {
			_, err := s.runPoint(tb, fmt.Sprintf("fig10 data=%gx", mult), fmt.Sprintf("nodes=%d", nodes), updown.Config{Nodes: nodes},
				func(m *updown.Machine) (func() (updown.Stats, error), func() (Row, error), error) {
					app, err := ingest.New(m, data, ingest.Config{BlockBytes: opt.BlockBytes})
					if err != nil {
						return nil, nil, err
					}
					return app.Run, func() (Row, error) {
						if app.Records != uint64(n) {
							return Row{}, fmt.Errorf("parsed %d records, want %d", app.Records, n)
						}
						return rateRow(m, strconv.Itoa(nodes), app.Elapsed(), float64(n), 1e6), nil
					}, nil
				})
			if err != nil {
				return nil, err
			}
		}
		tb.FillSpeedups()
		tb.Notes = append(tb.Notes, "record counts validated at every configuration")
		tables = append(tables, tb)
	}
	return tables, nil
}

// Fig11Options configures the partial-match latency sweep.
type Fig11Options struct {
	// Records is the stream length.
	Records int
	// Interarrival is the record gap in cycles (small enough to queue).
	Interarrival arch.Cycles
	// LaneCounts sweeps the processing resources; the paper's 1/8, 1/2,
	// 1 and 4 nodes correspond to 256, 1024, 2048 and 8192 lanes.
	LaneCounts []int
	Seed       uint64
	// Shards, Profile, CritPath, MaxTime (default 1<<46) and Progress are
	// the shared sweep options (see sweep).
	Shards            int
	Profile, CritPath bool
	MaxTime           arch.Cycles
	Progress          io.Writer
}

// Fig11PartialMatch regenerates Figure 11 / Table 12: streaming query
// latency versus compute resources. The metric is mean
// arrival-to-decision latency in microseconds; speedup is the latency
// reduction relative to the smallest configuration.
func Fig11PartialMatch(opt Fig11Options) (*Table, error) {
	orDefault(&opt.Records, 1500)
	orDefault(&opt.Interarrival, 8)
	// The paper's 1/8-to-4-node sweep relies on the stream
	// saturating the small configurations; at reduced record
	// counts that regime lives below one node.
	orDefaultList(&opt.LaneCounts, 32, 128, 512, 2048)
	orDefault(&opt.Seed, 11)
	orDefault(&opt.MaxTime, 1<<46)
	if err := Validate(0, 0, Positive("records", opt.Records), Positive("lanes", opt.LaneCounts...)); err != nil {
		return nil, err
	}
	s := sweep{Shards: opt.Shards, Profile: opt.Profile, CritPath: opt.CritPath, MaxTime: opt.MaxTime, Progress: opt.Progress}
	_, records := tform.GenCSV(opt.Records, 4096, 4, opt.Seed)
	patterns := []match.Pattern{
		{Types: []uint64{0, 1}},
		{Types: []uint64{1, 2, 3}},
		{Types: []uint64{2, 2}},
	}
	tb := &Table{
		Title:      "Figure 11 / Table 12: Partial match latency",
		Workload:   fmt.Sprintf("%d streamed records, 3 patterns, interarrival %d cycles", opt.Records, opt.Interarrival),
		MetricName: "lat-us",
	}
	var baseLat float64
	for _, lanes := range opt.LaneCounts {
		_, err := s.runPoint(tb, "fig11", fmt.Sprintf("lanes=%d", lanes), updown.Config{Nodes: (lanes + 2047) / 2048},
			func(m *updown.Machine) (func() (updown.Stats, error), func() (Row, error), error) {
				app, err := match.New(m, records, patterns, match.Config{
					Lanes:        kvmsr.LaneSet{First: 0, Count: lanes},
					Interarrival: opt.Interarrival,
				})
				if err != nil {
					return nil, nil, err
				}
				return app.Run, func() (Row, error) {
					if app.Processed() != uint64(opt.Records) {
						return Row{}, fmt.Errorf("processed %d of %d", app.Processed(), opt.Records)
					}
					// The mean latency is a fractional cycle count, so it is
					// converted at the machine clock directly rather than
					// through Machine.Seconds' whole cycles.
					lat := app.AvgLatency()
					sec := lat / m.Arch.ClockHz
					if baseLat == 0 {
						baseLat = lat
					}
					return Row{Label: fmt.Sprintf("%d lanes", lanes), Cycles: arch.Cycles(lat),
						Seconds: sec, Speedup: baseLat / lat, Metric: sec * 1e6}, nil
				}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("sequential oracle expects %d matches; racing streams may detect fewer (incremental semantics)",
		match.Oracle(records, patterns)))
	return tb, nil
}
