package sig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// The canonical encoding used for every signed payload in the repository.
//
// Agreement protocols sign structured data (names, nonces, nested signed
// messages). Signing requires a deterministic byte representation that both
// signer and verifier compute identically; this file provides a minimal
// length-prefixed tuple encoding:
//
//	uint32(len) || bytes, fields concatenated in order,
//	integers as big-endian uint64.
//
// The encoding is intentionally not self-describing: each protocol knows
// the shape of its own payloads, and a shape mismatch surfaces as a decode
// error, which protocols treat as a discovered failure (ReasonBadFormat).

// ErrTruncated reports an encoding shorter than its own length prefixes
// promise.
var ErrTruncated = errors.New("sig: truncated encoding")

// maxFieldLen bounds a single encoded field (16 MiB) so malformed or
// hostile length prefixes cannot drive huge allocations.
const maxFieldLen = 16 << 20

// Append-style primitives. Each appends one canonical field to dst and
// returns the extended slice, exactly as the Encoder methods would, but
// into a caller-owned buffer — the zero-allocation building blocks the
// hot paths (chain signatures, EIG relaying, wire framing) are built on.

// AppendBytes appends a length-prefixed byte field to dst.
func AppendBytes(dst, b []byte) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	dst = append(dst, n[:]...)
	return append(dst, b...)
}

// AppendString appends a length-prefixed string field to dst.
func AppendString(dst []byte, s string) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s)))
	dst = append(dst, n[:]...)
	return append(dst, s...)
}

// AppendUint32 appends a raw big-endian uint32 — the length-prefix
// primitive underlying Bytes/String fields. Callers that stream a field's
// content separately (e.g. Chain.MarshalTo into a surrounding payload)
// write the prefix with it, then append exactly that many content bytes.
func AppendUint32(dst []byte, v uint32) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], v)
	return append(dst, n[:]...)
}

// AppendUint64 appends a fixed-width big-endian integer field to dst.
func AppendUint64(dst []byte, v uint64) []byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], v)
	return append(dst, n[:]...)
}

// AppendInt appends an int as a fixed-width field to dst. Negative values
// are encoded in two's complement and round-trip through Decoder.Int.
func AppendInt(dst []byte, v int) []byte { return AppendUint64(dst, uint64(int64(v))) }

// BytesFieldSize returns the encoded size of a byte/string field of n
// payload bytes; IntFieldSize is the encoded size of an integer field.
// Hot paths use these to presize buffers so one allocation suffices.
func BytesFieldSize(n int) int { return 4 + n }

// IntFieldSize is the encoded size of a Uint64/Int field.
const IntFieldSize = 8

// Encoder incrementally builds a canonical tuple encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// encoderPool recycles encoders (and, more importantly, their grown
// buffers) across GetEncoder/Release pairs.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns an empty encoder from a pool. Callers that are done
// with the encoding must call Release; the encoding returned by Encoding
// aliases the pooled buffer, so copy it (or use AppendTo) before
// releasing.
func GetEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// Release resets the encoder and returns it to the pool.
func (e *Encoder) Release() {
	e.buf = e.buf[:0]
	encoderPool.Put(e)
}

// Reset discards the accumulated encoding, keeping the buffer capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow ensures capacity for at least n more bytes, so a presized encoding
// completes without reallocation.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		grown := make([]byte, len(e.buf), len(e.buf)+n)
		copy(grown, e.buf)
		e.buf = grown
	}
}

// Bytes appends a length-prefixed byte field.
func (e *Encoder) Bytes(b []byte) *Encoder {
	e.buf = AppendBytes(e.buf, b)
	return e
}

// String appends a length-prefixed string field.
func (e *Encoder) String(s string) *Encoder {
	e.buf = AppendString(e.buf, s)
	return e
}

// Uint64 appends a fixed-width big-endian integer field.
func (e *Encoder) Uint64(v uint64) *Encoder {
	e.buf = AppendUint64(e.buf, v)
	return e
}

// Int appends an int as a fixed-width field. Negative values are encoded
// in two's complement and round-trip through Decoder.Int.
func (e *Encoder) Int(v int) *Encoder {
	e.buf = AppendInt(e.buf, v)
	return e
}

// Raw appends b verbatim — no length prefix. For callers that already
// hold a correctly encoded field sequence (e.g. a slice of another
// encoder's output) and are splicing it into this encoding.
func (e *Encoder) Raw(b []byte) *Encoder {
	e.buf = append(e.buf, b...)
	return e
}

// Encoding returns the accumulated bytes. The returned slice aliases the
// encoder's buffer; callers that keep encoding must copy it first.
func (e *Encoder) Encoding() []byte { return e.buf }

// AppendTo appends the accumulated encoding to dst and returns the
// extended slice, leaving the encoder untouched. Use it to extract a
// pooled encoder's result before Release.
func (e *Encoder) AppendTo(dst []byte) []byte { return append(dst, e.buf...) }

// Len returns the size of the accumulated encoding.
func (e *Encoder) Len() int { return len(e.buf) }

// Decoder reads back a canonical tuple encoding.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps data for decoding. The decoder does not copy data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Reset rewinds the decoder onto data, clearing any error. Two-pass
// decoders (size, then fill) use it to re-read a payload without a
// second Decoder allocation.
func (d *Decoder) Reset(data []byte) {
	d.buf = data
	d.off = 0
	d.err = nil
}

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// fail records the first error and makes subsequent reads no-ops.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Bytes reads a length-prefixed byte field. It returns nil after any error.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	if d.off+4 > len(d.buf) {
		d.fail(fmt.Errorf("%w: missing length prefix at offset %d", ErrTruncated, d.off))
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf[d.off : d.off+4])
	d.off += 4
	if n > maxFieldLen {
		d.fail(fmt.Errorf("sig: field length %d exceeds limit", n))
		return nil
	}
	if d.off+int(n) > len(d.buf) {
		d.fail(fmt.Errorf("%w: field of %d bytes at offset %d", ErrTruncated, n, d.off))
		return nil
	}
	out := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

// String reads a length-prefixed string field.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Uint64 reads a fixed-width integer field.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(fmt.Errorf("%w: missing uint64 at offset %d", ErrTruncated, d.off))
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off : d.off+8])
	d.off += 8
	return v
}

// Int reads an int field written by Encoder.Int.
func (d *Decoder) Int() int { return int(int64(d.Uint64())) }

// Finish returns an error if decoding failed or if unread bytes remain.
// Protocols call Finish to reject payloads with trailing garbage, which a
// failure-free run never produces.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("sig: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}
