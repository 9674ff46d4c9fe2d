package main

import (
	"math"
	"strings"
	"testing"
)

func TestObsFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       obsFlags
		wantErr string
	}{
		{"defaults", obsFlags{Interval: 8192}, ""},
		{"zero interval", obsFlags{Interval: 0}, "-metrics-interval"},
		{"negative interval", obsFlags{Interval: -5, Profile: true}, "-metrics-interval"},
		{"spans without trace", obsFlags{Interval: 1, Spans: true}, "-spans"},
		{"spans with trace", obsFlags{Interval: 1, Spans: true, TracePath: "t.json"}, ""},
		{"critpath alone", obsFlags{Interval: 1, CritPath: true}, "-critpath"},
		{"flows alone", obsFlags{Interval: 1, Flows: true}, "-critpath/-flows"},
		{"critpath with profile", obsFlags{Interval: 1, CritPath: true, Profile: true}, ""},
		{"flows with trace", obsFlags{Interval: 1, Flows: true, TracePath: "t.json"}, ""},
		{"everything", obsFlags{Interval: 4096, Profile: true, TracePath: "t.json",
			Spans: true, CritPath: true, Flows: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error mentioning %q", tc.f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestObsFlagsTraceOptions(t *testing.T) {
	if o := (obsFlags{Interval: 1}).traceOptions(); o != nil {
		t.Errorf("tracing off: options = %+v, want nil", o)
	}
	o := (obsFlags{Interval: 1, Spans: true, TracePath: "t.json"}).traceOptions()
	if o == nil || !o.Spans || o.Causal {
		t.Errorf("spans only: options = %+v", o)
	}
	o = (obsFlags{Interval: 1, CritPath: true, Profile: true}).traceOptions()
	if o == nil || o.Spans || !o.Causal {
		t.Errorf("critpath only: options = %+v", o)
	}
}

func TestSimFlagsValidate(t *testing.T) {
	// ok is a valid baseline each case perturbs.
	ok := simFlags{App: "bfs", Scale: 14, Nodes: 4, Accels: 32, Iters: 1, Records: 5000}
	cases := []struct {
		name    string
		mut     func(*simFlags)
		wantErr string
	}{
		{"baseline", func(f *simFlags) {}, ""},
		{"checkpoint and restore", func(f *simFlags) { f.CkptPath = "a"; f.RestorePath = "b" }, "mutually exclusive"},
		{"checkpoint for match", func(f *simFlags) { f.App = "match"; f.CkptPath = "a" }, "pr|bfs|tc"},
		{"restore for ingest", func(f *simFlags) { f.App = "ingest"; f.RestorePath = "a" }, "pr|bfs|tc"},
		{"negative rep", func(f *simFlags) { f.Rep = -1 }, "-rep"},
		{"rep beyond fan-out", func(f *simFlags) { f.Rep = 99 }, "-rep"},
		{"rep beyond nodes", func(f *simFlags) { f.Rep = 8 }, "not enough distinct nodes"},
		{"rep 2", func(f *simFlags) { f.Rep = 2 }, ""},
		{"victim without rep", func(f *simFlags) { f.Spare = true; f.VictimAt = 1000 }, "-rep 2"},
		{"victim without spare", func(f *simFlags) { f.Rep = 2; f.VictimAt = 1000 }, "-spare"},
		{"negative victim", func(f *simFlags) { f.VictimAt = -5 }, "-victim"},
		{"victim full config", func(f *simFlags) { f.Rep = 2; f.Spare = true; f.VictimAt = 1000 }, ""},
		{"victim one node", func(f *simFlags) { f.Nodes = 1; f.Rep = 1; f.Spare = true; f.VictimAt = 9 }, "-rep 2"},
		{"unknown app", func(f *simFlags) { f.App = "sssp" }, "unknown app"},
		{"long app name", func(f *simFlags) { f.App = "pagerank" }, ""},
		{"negative scale", func(f *simFlags) { f.Scale = -1 }, "scale -1"},
		{"scale beyond memory", func(f *simFlags) { f.Scale = 31 }, "scale 31"},
		{"scale 0", func(f *simFlags) { f.Scale = 0 }, ""},
		{"negative iters", func(f *simFlags) { f.Iters = -3 }, "iters -3"},
		{"zero iters", func(f *simFlags) { f.Iters = 0 }, "iters 0"},
		{"negative records", func(f *simFlags) { f.App = "ingest"; f.Records = -1 }, "records -1"},
		{"zero nodes", func(f *simFlags) { f.Nodes = 0 }, "nodes 0"},
		{"zero accels", func(f *simFlags) { f.Accels = 0 }, "accel 0"},
		{"nodes beyond NetworkID", func(f *simFlags) { f.Nodes = 3000000 }, "NetworkID"},
		{"accels beyond NetworkID", func(f *simFlags) { f.Accels = 1 << 40 }, "NetworkID"},
		{"largest machine", func(f *simFlags) { f.Nodes = math.MaxInt32 / 2049 }, ""},
		{"spare beyond NetworkID", func(f *simFlags) { f.Nodes = math.MaxInt32 / 2049; f.Spare = true }, "NetworkID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mut(&f)
			err := f.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error mentioning %q", f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckWarmStartMeta(t *testing.T) {
	flags := simFlags{App: "bfs", Nodes: 4, Spare: true, Rep: 2}
	good := warmStart{App: "bfs", Nodes: 4, Spare: true, Rep: 2}
	cases := []struct {
		name    string
		mut     func(*warmStart)
		wantErr string
	}{
		{"match", func(ws *warmStart) {}, ""},
		{"legacy checkpoint", func(ws *warmStart) { ws.Nodes = 0 }, "predates machine metadata"},
		{"app mismatch", func(ws *warmStart) { ws.App = "pr" }, "-app"},
		{"nodes mismatch", func(ws *warmStart) { ws.Nodes = 8 }, "-nodes"},
		{"spare mismatch", func(ws *warmStart) { ws.Spare = false }, "-spare"},
		{"rep mismatch", func(ws *warmStart) { ws.Rep = 3 }, "-rep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := good
			tc.mut(&ws)
			err := checkWarmStartMeta(&ws, flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("got %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
	// rep 0 and rep 1 are the same machine.
	ws := good
	ws.Rep = 1
	f := flags
	f.Rep = 0
	if err := checkWarmStartMeta(&ws, f); err != nil {
		t.Errorf("rep 0 vs 1 rejected: %v", err)
	}
}
