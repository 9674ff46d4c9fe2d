package metrics_test

import (
	"math"
	"strings"
	"testing"

	"updown/internal/arch"
	"updown/internal/metrics"
)

// TestSummarizeDegenerate drives Summarize and WriteText through profiles
// that used to risk divide-by-zero: zero-duration runs, empty/untouched
// node sets, sampling intervals wider than the run, and machine
// descriptions without bandwidth figures. Every summary field must be
// finite and the text report renderable.
func TestSummarizeDegenerate(t *testing.T) {
	zeroBW := arch.DefaultMachine(2)
	zeroBW.DRAMBytesPerCycle = 0
	zeroBW.InjectBytesPerCycle = 0

	cases := []struct {
		name  string
		mach  arch.Machine
		build func() *metrics.Profile
		want  func(t *testing.T, s metrics.Summary)
	}{
		{
			name: "zero-duration run with activity",
			mach: arch.DefaultMachine(2),
			build: func() *metrics.Profile {
				r := metrics.New(2, metrics.Options{Interval: 100})
				r.Shard(0).Event(0, -1, arch.KindEvent, 0, 50, 1)
				// No ObserveTotals: FinalTime stays zero.
				return r.Profile()
			},
			want: func(t *testing.T, s metrics.Summary) {
				if s.NodesTouched != 1 || s.Imbalance != 1 {
					t.Errorf("touched=%d imbalance=%v, want 1 and 1.0", s.NodesTouched, s.Imbalance)
				}
				if s.DRAMUtil != 0 || s.InjUtil != 0 {
					t.Errorf("utilizations %v/%v nonzero with FinalTime 0", s.DRAMUtil, s.InjUtil)
				}
			},
		},
		{
			name: "empty node set",
			mach: arch.DefaultMachine(1),
			build: func() *metrics.Profile {
				return metrics.New(0, metrics.Options{}).Profile()
			},
			want: func(t *testing.T, s metrics.Summary) {
				if s.NodesTouched != 0 || s.Imbalance != 0 {
					t.Errorf("empty profile summarized as %+v", s)
				}
			},
		},
		{
			name: "untouched nodes with positive final time",
			mach: arch.DefaultMachine(4),
			build: func() *metrics.Profile {
				r := metrics.New(4, metrics.Options{})
				r.ObserveTotals(metrics.Totals{FinalTime: 5000})
				return r.Profile()
			},
			want: func(t *testing.T, s metrics.Summary) {
				if s.NodesTouched != 0 || s.Imbalance != 0 || s.DRAMUtil != 0 || s.InjUtil != 0 {
					t.Errorf("idle run summarized as %+v", s)
				}
			},
		},
		{
			name: "interval wider than the run",
			mach: arch.DefaultMachine(1),
			build: func() *metrics.Profile {
				r := metrics.New(1, metrics.Options{Interval: 1 << 30})
				r.Shard(0).Event(0, -1, arch.KindEvent, 10, 20, 0)
				r.Shard(0).Send(0, true, 64, 15)
				r.ObserveTotals(metrics.Totals{FinalTime: 100})
				return r.Profile()
			},
			want: func(t *testing.T, s metrics.Summary) {
				if s.NodesTouched != 1 {
					t.Errorf("touched=%d, want 1", s.NodesTouched)
				}
				if s.InjUtil <= 0 {
					t.Errorf("inj util %v, want positive", s.InjUtil)
				}
			},
		},
		{
			name: "machine without bandwidth figures",
			mach: zeroBW,
			build: func() *metrics.Profile {
				r := metrics.New(2, metrics.Options{Interval: 100})
				v := r.Shard(0)
				v.Event(1, -1, arch.KindEvent, 50, 25, 1)
				v.Send(1, true, 64, 60)
				v.DRAM(1, 4096, 128, 70)
				r.ObserveTotals(metrics.Totals{FinalTime: 200})
				return r.Profile()
			},
			want: func(t *testing.T, s metrics.Summary) {
				if s.DRAMUtil != 0 || s.InjUtil != 0 {
					t.Errorf("utilizations %v/%v nonzero with zero bandwidth", s.DRAMUtil, s.InjUtil)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			s := p.Summarize(tc.mach)
			for _, v := range []float64{s.Imbalance, s.DRAMUtil, s.InjUtil} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite summary field in %+v", s)
				}
			}
			tc.want(t, s)
			var b strings.Builder
			if err := p.WriteText(&b); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			if !strings.Contains(b.String(), "profile:") {
				t.Errorf("report missing header:\n%s", b.String())
			}
		})
	}
}
