package main

import (
	"errors"
	"strings"
	"testing"

	"updown/internal/harness"
)

// FuzzParseList feeds arbitrary comma-separated flag values through the
// int64 (-loads, -gaps) and float (-mults, -drops) list parsers: they never
// panic, an accepted list has one value per non-blank entry, and a rejected
// one is a one-line harness.ErrBadOption (exit 2), never anything else
// (testdata/fuzz/FuzzParseList holds the edge cases: overflow, signs,
// NaN/Inf spellings, blank entries, a newline inside an entry).
func FuzzParseList(f *testing.F) {
	for _, s := range []string{"24000,12000,6000,3000", "0.1,1,2", " 1 ,, 2 ", "3000x", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		entries := 0
		for _, e := range strings.Split(s, ",") {
			if strings.TrimSpace(e) != "" {
				entries++
			}
		}
		check := func(kind string, n int, err error) {
			switch {
			case err != nil && (!errors.Is(err, harness.ErrBadOption) || strings.Contains(err.Error(), "\n")):
				t.Fatalf("%q: %s list error %q is not a one-line bad option", s, kind, err)
			case err == nil && n != entries:
				t.Fatalf("%q: %s list has %d values for %d entries", s, kind, n, entries)
			}
		}
		ints, err := parseList("loads", s, parseInt64)
		check("int64", len(ints), err)
		floats, err := parseList("mults", s, parseFloat)
		check("float", len(floats), err)
	})
}
