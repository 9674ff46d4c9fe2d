package harness

import "testing"

// FuzzParseNodeList feeds arbitrary sweep-list strings (-nodes, -mem,
// -reps, -lanes) through the parser: it never panics, and every list it
// accepts is non-empty, sorted, free of duplicates and positive
// (testdata/fuzz/FuzzParseNodeList holds the edge cases: signs, overflow,
// empty fields, trailing garbage).
func FuzzParseNodeList(f *testing.F) {
	for _, s := range []string{"1,2,4,8,16", "4, 1,2", "1,,2,", "8x", "", "-3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ns, err := ParseNodeList(s)
		if err != nil {
			return
		}
		if len(ns) == 0 || ns[0] <= 0 {
			t.Fatalf("%q: accepted %v, want a non-empty positive list", s, ns)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				t.Fatalf("%q: accepted %v, want it sorted and deduplicated", s, ns)
			}
		}
	})
}
