package graph

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadGVNL feeds arbitrary gv/nl byte pairs to ReadGVNL: it never
// panics, every error wraps ErrBadGVNL, and an accepted graph validates
// and writes back to the bytes it was read from (testdata/fuzz/FuzzReadGVNL
// holds the headers that once panicked: N = 2^64-1, N = 2^62, and N = 0
// with an offset and edge count of 2^61).
func FuzzReadGVNL(f *testing.F) {
	g := FromEdges(16, DefaultRMAT(4, 1), BuildOptions{Dedup: true})
	var gv, nl bytes.Buffer
	if err := WriteGV(&gv, g); err != nil {
		f.Fatal(err)
	}
	if err := WriteNL(&nl, g); err != nil {
		f.Fatal(err)
	}
	f.Add(gv.Bytes(), nl.Bytes())
	f.Fuzz(func(t *testing.T, gvIn, nlIn []byte) {
		g, err := ReadGVNL(bytes.NewReader(gvIn), bytes.NewReader(nlIn))
		if err != nil {
			if !errors.Is(err, ErrBadGVNL) {
				t.Fatalf("error does not wrap ErrBadGVNL: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		var gv, nl bytes.Buffer
		if WriteGV(&gv, g) != nil || WriteNL(&nl, g) != nil ||
			!bytes.HasPrefix(gvIn, gv.Bytes()) || !bytes.HasPrefix(nlIn, nl.Bytes()) {
			t.Fatal("accepted graph does not write back to its input")
		}
	})
}
