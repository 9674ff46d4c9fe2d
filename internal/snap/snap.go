// Package snap is the checkpoint encoding: one Codec that either writes
// or reads, so every checkpointed structure states its byte layout once,
// in a single function used for both directions.
//
// All integers are fixed-width little-endian; lists and byte strings are
// count-prefixed. The first error sticks: later calls are no-ops and Err
// returns it. A reader grows a list as its elements arrive, so a count the
// stream cannot back ends at EOF, not in a count-sized allocation.
package snap

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Codec writes values to an io.Writer or reads them back from an
// io.Reader. Each method takes a pointer: writing encodes what it points
// to, reading stores into it.
type Codec struct {
	w   io.Writer
	r   io.Reader
	buf [8]byte
	err error
}

// NewWriter returns a Codec that encodes to w.
func NewWriter(w io.Writer) *Codec { return &Codec{w: w} }

// NewReader returns a Codec that decodes from r.
func NewReader(r io.Reader) *Codec { return &Codec{r: r} }

// Reading reports whether c decodes.
func (c *Codec) Reading() bool { return c.r != nil }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err unless an error is already recorded; a reader checking
// a decoded value fails with it, and every later call is a no-op.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf records a formatted error (see Fail).
func (c *Codec) Failf(format string, args ...any) { c.Fail(fmt.Errorf(format, args...)) }

// Raw writes b, or reads exactly len(b) bytes into it.
func (c *Codec) Raw(b []byte) {
	if c.err != nil {
		return
	}
	if c.r != nil {
		_, c.err = io.ReadFull(c.r, b)
	} else {
		_, c.err = c.w.Write(b)
	}
}

// Magic codes a format's leading bytes m. Reading, it reports whether the
// stream starts with m; a mismatch or a short stream reports false and
// records no error, so the caller names the failure with Fail.
func (c *Codec) Magic(m string) bool {
	if c.r == nil {
		c.Raw([]byte(m))
		return true
	}
	if c.err != nil {
		return false
	}
	b := make([]byte, len(m))
	_, err := io.ReadFull(c.r, b)
	return err == nil && string(b) == m
}

// U64 codes a fixed-width unsigned word.
func (c *Codec) U64(v *uint64) {
	if c.r == nil {
		binary.LittleEndian.PutUint64(c.buf[:], *v)
	}
	c.Raw(c.buf[:8])
	if c.r != nil && c.err == nil {
		*v = binary.LittleEndian.Uint64(c.buf[:])
	}
}

// Bool codes a flag as one byte, 1 or 0 (any nonzero byte reads true).
func (c *Codec) Bool(v *bool) {
	b := uint8(0)
	if *v {
		b = 1
	}
	if W8(c, &b); c.r != nil {
		*v = b != 0
	}
}

// Integer is any integer type.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// W64 codes any integer as a 64-bit word (signed values sign-extend).
func W64[T Integer](c *Codec, v *T) {
	u := uint64(*v)
	if c.U64(&u); c.r != nil {
		*v = T(u)
	}
}

// W32 codes any integer as a 32-bit word, truncating it.
func W32[T Integer](c *Codec, v *T) {
	if c.r == nil {
		binary.LittleEndian.PutUint32(c.buf[:], uint32(*v))
	}
	c.Raw(c.buf[:4])
	if c.r != nil && c.err == nil {
		*v = T(binary.LittleEndian.Uint32(c.buf[:]))
	}
}

// W8 codes any integer as one byte, truncating it.
func W8[T Integer](c *Codec, v *T) {
	if c.r == nil {
		c.buf[0] = uint8(*v)
	}
	c.Raw(c.buf[:1])
	if c.r != nil && c.err == nil {
		*v = T(c.buf[0])
	}
}

// chunk bounds what a reader allocates ahead of the data: a list starts
// at most this many elements long and grows as its elements arrive.
const chunk = 4096

// count codes a list length; reading, a count over max is an error.
func (c *Codec) count(n int, max uint64) uint64 {
	u := uint64(n)
	c.U64(&u)
	if c.r != nil && c.err == nil && u > max {
		c.Failf("count %d exceeds limit %d", u, max)
	}
	return u
}

// List codes a count-prefixed list of at most max elements, each coded by
// f with its index. Reading, *s is replaced by a list that grows as the
// elements arrive, each starting from T's zero value, so f may check
// earlier elements through s and stop the list with Fail.
func List[T any](c *Codec, s *[]T, max uint64, f func(i int, e *T)) {
	n := c.count(len(*s), max)
	if c.r == nil {
		for i := range *s {
			f(i, &(*s)[i])
		}
		return
	}
	if c.err != nil {
		return
	}
	*s = make([]T, 0, min(n, chunk))
	for i := 0; uint64(i) < n && c.err == nil; i++ {
		var zero T
		*s = append(*s, zero)
		f(i, &(*s)[i])
	}
}

// Bytes codes a length-prefixed byte string of at most max bytes; reading
// grows the buffer as the bytes arrive.
func (c *Codec) Bytes(b *[]byte, max uint64) {
	n := c.count(len(*b), max)
	if c.r == nil {
		c.Raw(*b)
		return
	}
	if c.err != nil {
		return
	}
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n && c.err == nil {
		k := int(min(n-uint64(len(buf)), 16*chunk))
		buf = slices.Grow(buf, k)[:len(buf)+k]
		c.Raw(buf[len(buf)-k:])
	}
	if c.err != nil {
		c.err = fmt.Errorf("%d-byte string: %w", n, c.err)
		return
	}
	*b = buf
}
