package metrics_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"updown/internal/arch"
	"updown/internal/metrics"
)

// decodedTrace mirrors the Chrome trace_event JSON Object Format — the
// schema Perfetto's legacy importer accepts. Decoding with
// DisallowUnknownFields pins the exporter to exactly these fields.
type decodedTrace struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	TraceEvents     []decodedEvent `json:"traceEvents"`
}

type decodedEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat"`
	ID   string         `json:"id"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// buildTraceProfile records activity on 2 of 3 nodes across a few buckets.
func buildTraceProfile(t *testing.T) (*metrics.Profile, arch.Machine) {
	t.Helper()
	m := arch.DefaultMachine(3)
	r := metrics.New(3, metrics.Options{Interval: 1000})
	v := r.Shard(0)
	v.Event(0, -1, arch.KindEvent, 100, 400, 2)
	v.Event(0, -1, arch.KindDRAMRead, 1500, 30, 0)
	v.Send(0, true, 64, 120)
	v.DRAM(2, 4096, 320, 2500)
	r.ObserveTotals(metrics.Totals{FinalTime: 3000})
	return r.Profile(), m
}

// TestWriteTraceSchema decodes the exported JSON and validates it against
// the trace_event schema: a traceEvents array whose members carry only
// known fields, phases restricted to metadata ("M") and counters ("C"),
// microsecond timestamps that never run backwards per track, and numeric
// counter values.
func TestWriteTraceSchema(t *testing.T) {
	p, m := buildTraceProfile(t)
	var buf bytes.Buffer
	if err := metrics.WriteTraceFile(&buf, m, p, nil); err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var tr decodedTrace
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("trace is not valid trace_event JSON: %v\n%s", err, buf.String())
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	type track struct {
		pid  int
		name string
	}
	meta := map[int]string{}      // pid -> process name
	lastTs := map[track]float64{} // counter track -> last ts
	counters := map[string]bool{}
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" {
				t.Errorf("event %d: metadata name %q", i, ev.Name)
			}
			name, ok := ev.Args["name"].(string)
			if !ok || name == "" {
				t.Errorf("event %d: metadata without args.name: %+v", i, ev)
			}
			meta[ev.Pid] = name
		case "C":
			if ev.Name == "" {
				t.Errorf("event %d: unnamed counter", i)
			}
			counters[ev.Name] = true
			if ev.Ts < 0 {
				t.Errorf("event %d: negative ts %v", i, ev.Ts)
			}
			if len(ev.Args) == 0 {
				t.Errorf("event %d: counter without args", i)
			}
			for k, raw := range ev.Args {
				if _, ok := raw.(float64); !ok {
					t.Errorf("event %d: counter arg %q is %T, want number", i, k, raw)
				}
			}
			if _, ok := meta[ev.Pid]; !ok {
				t.Errorf("event %d: counter for pid %d precedes its process_name", i, ev.Pid)
			}
			key := track{ev.Pid, ev.Name}
			if prev, ok := lastTs[key]; ok && ev.Ts < prev {
				t.Errorf("event %d: ts %v < previous %v on track %v", i, ev.Ts, prev, key)
			}
			lastTs[key] = ev.Ts
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}

	// Only touched nodes get tracks; node 1 had no activity.
	if len(meta) != 2 {
		t.Errorf("processes = %v, want nodes 0 and 2 only", meta)
	}
	for _, pid := range []int{0, 2} {
		want := fmt.Sprintf("node %04d", pid)
		if meta[pid] != want {
			t.Errorf("pid %d named %q, want %q", pid, meta[pid], want)
		}
	}
	for _, name := range []string{"lane_occupancy_pct", "events", "sends",
		"dram_bytes", "dram_backlog_cycles", "inj_backlog_cycles", "waitq_max"} {
		if !counters[name] {
			t.Errorf("missing counter track %q (have %v)", name, counters)
		}
	}
}

// TestWriteTraceTimestamps pins the cycle-to-microsecond conversion: at
// 2 GHz, bucket start cycle 2000 is ts = 1.0 us.
func TestWriteTraceTimestamps(t *testing.T) {
	m := arch.DefaultMachine(1)
	r := metrics.New(1, metrics.Options{Interval: 2000})
	r.Shard(0).Event(0, -1, arch.KindEvent, 2000, 10, 0) // bucket 1
	r.ObserveTotals(metrics.Totals{FinalTime: 4000})
	var buf bytes.Buffer
	if err := metrics.WriteTraceFile(&buf, m, r.Profile(), nil); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	sawBucket1 := false
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "C" && ev.Name == "events" && ev.Args["value"] == 1.0 {
			sawBucket1 = true
			if ev.Ts != 1.0 {
				t.Errorf("bucket at cycle 2000 has ts %v us, want 1.0 at 2 GHz", ev.Ts)
			}
		}
	}
	if !sawBucket1 {
		t.Error("no counter sample for the populated bucket")
	}
}

// TestWriteTracePartialLastBucket: activity whose final bucket is only
// partially covered by the run (FinalTime not a multiple of Interval) must
// land in bucket at/interval, and the series-closing zero sample must sit
// at the bucket boundary after it — not at FinalTime.
func TestWriteTracePartialLastBucket(t *testing.T) {
	m := arch.DefaultMachine(1)
	r := metrics.New(1, metrics.Options{Interval: 1000})
	v := r.Shard(0)
	v.Event(0, -1, arch.KindEvent, 100, 10, 0)  // bucket 0
	v.Event(0, -1, arch.KindEvent, 2400, 10, 0) // bucket 2, before FinalTime 2500
	r.ObserveTotals(metrics.Totals{FinalTime: 2500})
	var buf bytes.Buffer
	if err := metrics.WriteTraceFile(&buf, m, r.Profile(), nil); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var tr decodedTrace
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("trace is not valid trace_event JSON: %v", err)
	}
	// At 2 GHz: cycle 2000 = 1.0 us (bucket 2 start), cycle 3000 = 1.5 us
	// (the close-out sample after the last, partially-filled bucket).
	var sawBucket2, sawClose bool
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "C" || ev.Name != "events" {
			continue
		}
		switch ev.Ts {
		case 1.0:
			sawBucket2 = true
			if ev.Args["value"] != 1.0 {
				t.Errorf("bucket 2 value = %v, want 1", ev.Args["value"])
			}
		case 1.5:
			sawClose = true
			if ev.Args["value"] != 0.0 {
				t.Errorf("close-out value = %v, want 0", ev.Args["value"])
			}
		}
		if ev.Ts > 1.5 {
			t.Errorf("counter sample at ts %v beyond the close-out boundary", ev.Ts)
		}
	}
	if !sawBucket2 {
		t.Error("no sample for the partially-filled last bucket at ts 1.0")
	}
	if !sawClose {
		t.Error("no series close-out sample at ts 1.5")
	}
}

// TestWriteTraceEmptyProfile: a run that touched nothing still produces a
// decodable file.
func TestWriteTraceEmptyProfile(t *testing.T) {
	m := arch.DefaultMachine(2)
	r := metrics.New(2, metrics.Options{})
	var buf bytes.Buffer
	if err := metrics.WriteTraceFile(&buf, m, r.Profile(), nil); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("empty trace not decodable: %v", err)
	}
	if len(tr.TraceEvents) != 0 {
		t.Errorf("expected no events for an untouched machine, got %d", len(tr.TraceEvents))
	}
}
