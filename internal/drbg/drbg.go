// Package drbg is a tiny deterministic random byte stream (SHA-256 in
// counter mode) used to make the measurement campaign reproducible: the
// scanner derives per-connection client entropy from (seed, domain, probe
// label), and simulated terminators derive per-connection server entropy
// from (terminator seed, client random). Identical seed material yields an
// identical stream, so the same study.Options produce a byte-identical
// Dataset on every run.
//
// This is a simulation tool, not a cryptographic DRBG for production use.
package drbg

import (
	"crypto/sha256"
	"encoding/binary"
)

// Reader produces the deterministic stream block_i = SHA-256(key || i),
// where key = SHA-256 over the length-prefixed seed parts.
type Reader struct {
	key [32]byte
	ctr uint64
	buf [32]byte
	off int
}

// New derives a stream from the given seed parts. Parts are
// length-prefixed before hashing so ("ab","c") and ("a","bc") differ.
func New(parts ...[]byte) *Reader {
	return &Reader{key: key(parts...), off: 32} // empty buffer: first Read derives block 0
}

// key hashes the length-prefixed parts, in a stack buffer when they fit.
func key(parts ...[]byte) [32]byte {
	n := 0
	for _, p := range parts {
		n += 8 + len(p)
	}
	var arr [192]byte
	b := arr[:0]
	if n > len(arr) {
		b = make([]byte, 0, n)
	}
	for _, p := range parts {
		b = appendPart(b, p)
	}
	return sha256.Sum256(b)
}

// NewString is New over string parts.
func NewString(parts ...string) *Reader {
	bs := make([][]byte, len(parts))
	for i, p := range parts {
		bs[i] = []byte(p)
	}
	return New(bs...)
}

// appendPart appends one length-prefixed seed part.
func appendPart(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(p)))
	return append(b, p...)
}

// NewParts derives the stream for (p0, s1, s2), byte-identical to
// New(p0, []byte(s1), []byte(s2)). This fixed-arity form is the
// scanner's per-probe hot path: it skips the variadic slice and the two
// string conversions.
func NewParts(p0 []byte, s1, s2 string) *Reader {
	r := &Reader{off: 32}
	r.key = partsKey(p0, s1, s2)
	return r
}

func partsKey(p0 []byte, s1, s2 string) [32]byte {
	n := 24 + len(p0) + len(s1) + len(s2)
	var arr [192]byte
	var b []byte
	if n <= len(arr) {
		b = arr[:0]
	} else {
		b = make([]byte, 0, n)
	}
	b = appendPart(b, p0)
	b = binary.BigEndian.AppendUint64(b, uint64(len(s1)))
	b = append(b, s1...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(s2)))
	b = append(b, s2...)
	return sha256.Sum256(b)
}

// Reseed re-keys the reader in place from two seed parts, equivalent to
// replacing it with New(p0, p1). Terminators keep one Reader per pooled
// connection and reseed it per ClientHello instead of allocating.
func (r *Reader) Reseed(p0, p1 []byte) {
	r.key = key(p0, p1)
	r.ctr = 0
	r.off = 32
}

// ReseedParts re-keys the reader in place, equivalent to replacing it
// with NewParts(p0, s1, s2). The scanner keeps one Reader per worker
// arena and reseeds it per probe instead of allocating.
func (r *Reader) ReseedParts(p0 []byte, s1, s2 string) {
	r.key = partsKey(p0, s1, s2)
	r.ctr = 0
	r.off = 32
}

// Read fills p from the stream. It never fails.
func (r *Reader) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if r.off == len(r.buf) {
			var blk [40]byte
			copy(blk[:32], r.key[:])
			binary.BigEndian.PutUint64(blk[32:], r.ctr)
			r.ctr++
			r.buf = sha256.Sum256(blk[:])
			r.off = 0
		}
		c := copy(p, r.buf[r.off:])
		r.off += c
		p = p[c:]
	}
	return n, nil
}
