package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Binary interchange format mirroring the paper's preprocessing outputs:
// *_gv.bin holds the vertex array (per vertex: degree and neighbor-list
// offset, as 64-bit little-endian words, preceded by a header), *_nl.bin
// holds the neighbor list as 64-bit words.

const gvMagic uint64 = 0x5544_4756 // "UDGV"
const nlMagic uint64 = 0x5544_4e4c // "UDNL"

// WriteGV writes the vertex array.
func WriteGV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{gvMagic, uint64(g.N)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for v := 0; v <= g.N; v++ {
		if err := binary.Write(bw, binary.LittleEndian, g.Offsets[v]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNL writes the neighbor list.
func WriteNL(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, []uint64{nlMagic, g.NumEdges()}); err != nil {
		return err
	}
	buf := make([]uint64, 0, 4096)
	for _, d := range g.Neigh {
		buf = append(buf, uint64(d))
		if len(buf) == cap(buf) {
			if err := binary.Write(bw, binary.LittleEndian, buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := binary.Write(bw, binary.LittleEndian, buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrBadGVNL is wrapped by every ReadGVNL error: the two streams are not a
// well-formed WriteGV/WriteNL pair.
var ErrBadGVNL = errors.New("graph: malformed gv/nl file")

// ReadGVNL reconstructs a graph from the two binary streams. Both arrays
// grow chunk by chunk as words arrive, so a header that overstates a count
// ends at EOF, not in a count-sized allocation.
func ReadGVNL(gv, nl io.Reader) (*Graph, error) {
	bad := func(format string, args ...any) (*Graph, error) {
		return nil, fmt.Errorf("%w: "+format, append([]any{ErrBadGVNL}, args...)...)
	}
	br, nr := bufio.NewReader(gv), bufio.NewReader(nl)
	var hdr [2]uint64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return bad("gv header: %v", err)
	}
	if hdr[0] != gvMagic {
		return bad("gv magic %#x", hdr[0])
	}
	if hdr[1] > math.MaxUint32 { // vertex IDs are uint32
		return bad("gv vertex count %d does not fit 32-bit IDs", hdr[1])
	}
	n := int(hdr[1])
	offsets, err := readWords(br, uint64(n)+1, func(w uint64) uint64 { return w })
	if err != nil {
		return bad("gv offsets: %v", err)
	}
	if offsets[0] != 0 {
		return bad("gv offsets start at %d, not 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return bad("gv offsets not monotone at vertex %d", v)
		}
	}
	if err := binary.Read(nr, binary.LittleEndian, &hdr); err != nil {
		return bad("nl header: %v", err)
	}
	if hdr[0] != nlMagic {
		return bad("nl magic %#x", hdr[0])
	}
	if hdr[1] != offsets[n] {
		return bad("nl edge count %d != gv %d", hdr[1], offsets[n])
	}
	// Words past 32 bits saturate to MaxUint32 (never < n): Validate rejects them.
	neigh, err := readWords(nr, hdr[1], func(w uint64) uint32 { return uint32(min(w, math.MaxUint32)) })
	if err != nil {
		return bad("nl data: %v", err)
	}
	g := &Graph{N: n, Offsets: offsets, Neigh: neigh}
	if err := g.Validate(); err != nil {
		return bad("%v", err)
	}
	return g, nil
}

// readWords reads count little-endian words through conv, 4096 at a time.
func readWords[T any](r io.Reader, count uint64, conv func(uint64) T) ([]T, error) {
	out := make([]T, 0, min(count, 4096))
	buf := make([]uint64, 4096)
	for uint64(len(out)) < count {
		chunk := buf[:min(count-uint64(len(out)), uint64(len(buf)))]
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		for _, w := range chunk {
			out = append(out, conv(w))
		}
	}
	return out, nil
}

// ReadEdgeList parses a plain-text edge list ("src dst" per line, # or %
// comments, optional skip of leading lines — the paper's -l offset flag)
// and returns the edges plus the vertex count (max ID + 1).
func ReadEdgeList(r io.Reader, skipLines int) ([]Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		if line <= skipLines {
			continue
		}
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: want 'src dst', got %q", line, text)
		}
		s, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: %w", line, err)
		}
		d, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: %w", line, err)
		}
		edges = append(edges, Edge{uint32(s), uint32(d)})
		if int(s) > maxID {
			maxID = int(s)
		}
		if int(d) > maxID {
			maxID = int(d)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return edges, maxID + 1, nil
}

// WriteEdgeList writes edges as text (for the rmatgen tool).
func WriteEdgeList(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.Src, e.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}
