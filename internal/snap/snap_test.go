package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

type record struct {
	id    int32
	flag  bool
	small uint8
	when  int64
	word  uint64
	tags  []uint16
	blob  []byte
}

// code is the one layout the round trip writes and reads back.
func (r *record) code(c *Codec) {
	W32(c, &r.id)
	c.Bool(&r.flag)
	W8(c, &r.small)
	W64(c, &r.when)
	c.U64(&r.word)
	List(c, &r.tags, 16, func(_ int, t *uint16) { W64(c, t) })
	c.Bytes(&r.blob, 64)
}

func TestRoundTrip(t *testing.T) {
	in := []record{
		{id: -7, flag: true, small: 200, when: -1 << 40, word: 1<<64 - 1, tags: []uint16{1, 65535}, blob: []byte("payload")},
		{id: 1<<31 - 1},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if w.Reading() || !w.Magic("SNAPTEST") {
		t.Fatal("a writer reads or rejects its own magic")
	}
	raw := []byte{9, 8, 7}
	w.Raw(raw)
	List(w, &in, 4, func(_ int, r *record) { r.code(w) })
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	data := buf.Bytes()

	r := NewReader(bytes.NewReader(data))
	var out []record
	got := make([]byte, 3)
	if !r.Reading() || !r.Magic("SNAPTEST") {
		t.Fatal("the reader rejected the magic it was written with")
	}
	r.Raw(got)
	List(r, &out, 4, func(_ int, rec *record) { rec.code(r) })
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !bytes.Equal(got, raw) || len(out) != len(in) {
		t.Fatalf("raw %v, %d records; want %v, %d", got, len(out), raw, len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.id != b.id || a.flag != b.flag || a.small != b.small || a.when != b.when || a.word != b.word ||
			len(a.tags) != len(b.tags) || !bytes.Equal(a.blob, b.blob) {
			t.Errorf("record %d: got %+v, want %+v", i, b, a)
		}
		for j := range a.tags {
			if a.tags[j] != b.tags[j] {
				t.Errorf("record %d tag %d: got %d, want %d", i, j, b.tags[j], a.tags[j])
			}
		}
	}

	// Writing the decoded values again gives the same bytes.
	var again bytes.Buffer
	w2 := NewWriter(&again)
	w2.Magic("SNAPTEST")
	w2.Raw(raw)
	List(w2, &out, 4, func(_ int, r *record) { r.code(w2) })
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-encoding the decoded records changed the bytes")
	}
}

// A count over max, a wrong magic and a short stream are errors; the first
// one sticks and later calls are no-ops.
func TestReadErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tags := []uint16{1, 2, 3}
	List(w, &tags, 3, func(_ int, v *uint16) { W64(w, v) })

	r := NewReader(bytes.NewReader(buf.Bytes()))
	var got []uint16
	List(r, &got, 2, func(_ int, v *uint16) { W64(r, v) })
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "count 3 exceeds limit 2") || got != nil {
		t.Fatalf("over-limit list: err %v, got %v", r.Err(), got)
	}
	var word uint64 = 5
	if r.U64(&word); word != 5 {
		t.Fatal("a read after an error stored a value")
	}

	r = NewReader(strings.NewReader("SNAP"))
	if r.Magic("SNAPTEST") || r.Err() != nil {
		t.Fatalf("short magic: accepted or recorded %v", r.Err())
	}
	r = NewReader(strings.NewReader("NOTSNAPS"))
	if r.Magic("SNAPTEST") {
		t.Fatal("wrong magic accepted")
	}

	r = NewReader(bytes.NewReader(buf.Bytes()[:12]))
	List(r, &got, 3, func(_ int, v *uint16) { W64(r, v) })
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("short list: err %v, want unexpected EOF", r.Err())
	}

	r = NewReader(strings.NewReader(""))
	r.Fail(errors.New("first"))
	r.Failf("second %d", 2)
	if r.Err().Error() != "first" {
		t.Fatalf("err %v, want the first failure", r.Err())
	}
}

// A count of 2^40 on a 16-byte stream ends at EOF without allocating
// anything near the count, for lists and byte strings alike.
func TestHugeCountEndsAtEOF(t *testing.T) {
	stream := make([]byte, 16)
	binary.LittleEndian.PutUint64(stream, 1<<40)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, name := range []string{"list", "bytes"} {
		r := NewReader(bytes.NewReader(stream))
		if name == "list" {
			var words []uint64
			List(r, &words, 1<<62, func(_ int, v *uint64) { r.U64(v) })
		} else {
			var b []byte
			r.Bytes(&b, 1<<62)
		}
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) && !errors.Is(r.Err(), io.EOF) {
			t.Errorf("%s: err %v, want EOF", name, r.Err())
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading two 2^40 counts allocated %d bytes", grew)
	}
}
