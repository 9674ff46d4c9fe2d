package sort_test

import (
	gosort "sort"
	"testing"

	"updown"
	usort "updown/internal/apps/sort"
	"updown/internal/kvmsr"
	"updown/internal/prng"
)

func runSort(t *testing.T, input []uint64, cfg usort.Config, nodes int) []uint64 {
	t.Helper()
	m, err := updown.New(updown.Config{Nodes: nodes, Shards: 1, MaxTime: 1 << 42})
	if err != nil {
		t.Fatal(err)
	}
	app, err := usort.New(m, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	if app.Elapsed() <= 0 {
		t.Fatal("no simulated time")
	}
	return app.Result()
}

func checkSorted(t *testing.T, got, input []uint64) {
	t.Helper()
	if len(got) != len(input) {
		t.Fatalf("result has %d elements, want %d", len(got), len(input))
	}
	want := append([]uint64(nil), input...)
	gosort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBucketSortUniform(t *testing.T) {
	rng := prng.NewStream(17)
	input := make([]uint64, 5000)
	for i := range input {
		input[i] = rng.Uint64n(1 << 32)
	}
	got := runSort(t, input, usort.Config{}, 2)
	checkSorted(t, got, input)
}

func TestBucketSortWithDuplicatesAndSkew(t *testing.T) {
	rng := prng.NewStream(3)
	input := make([]uint64, 2000)
	for i := range input {
		// Heavy duplication concentrated in a narrow range.
		input[i] = rng.Uint64n(64)
	}
	got := runSort(t, input, usort.Config{MaxValue: 1 << 32, BucketCap: 4096}, 1)
	checkSorted(t, got, input)
}

func TestBucketSortSingleElement(t *testing.T) {
	got := runSort(t, []uint64{42}, usort.Config{}, 1)
	checkSorted(t, got, []uint64{42})
}

func TestBucketSortFewBuckets(t *testing.T) {
	rng := prng.NewStream(9)
	input := make([]uint64, 1000)
	for i := range input {
		input[i] = rng.Uint64n(1 << 20)
	}
	got := runSort(t, input, usort.Config{Buckets: 4, MaxValue: 1 << 20,
		Lanes: kvmsr.LaneSet{First: 0, Count: 256}}, 1)
	checkSorted(t, got, input)
}

func TestBucketSortValidation(t *testing.T) {
	m, _ := updown.New(updown.Config{Nodes: 1, Shards: 1})
	if _, err := usort.New(m, nil, usort.Config{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := usort.New(m, []uint64{1 << 40}, usort.Config{MaxValue: 100}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if _, err := usort.New(m, []uint64{1}, usort.Config{Buckets: 1 << 20}); err == nil {
		t.Error("more buckets than lanes accepted")
	}
}

// TestTwoSortsOneMachine: two sorts built on one machine and run one after
// the other keep their bucket counts in their own lane slots, so each
// returns exactly its own input, sorted.
func TestTwoSortsOneMachine(t *testing.T) {
	m, err := updown.New(updown.Config{Nodes: 2, Shards: 1, MaxTime: 1 << 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewStream(5)
	var inputs [2][]uint64
	var apps [2]*usort.App
	for i := range apps {
		inputs[i] = make([]uint64, 3000)
		for j := range inputs[i] {
			inputs[i][j] = rng.Uint64n(1 << 32)
		}
		if apps[i], err = usort.New(m, inputs[i], usort.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, app := range apps {
		if _, err := app.Run(); err != nil {
			t.Fatal(err)
		}
		checkSorted(t, app.Result(), inputs[i])
	}
}
