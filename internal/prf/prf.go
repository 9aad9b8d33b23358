// Package prf implements the TLS 1.2 pseudo-random function (RFC 5246
// §5, P_SHA256 only) and the standard key derivations built on it.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"hash"
)

// phash expands P_SHA256 under an already-keyed HMAC. One instance is
// reset between MACs instead of re-keying per block: hmac.New hashes the
// key into both pads every call, which tripled the hashing work for the
// three MACs per output block.
func phash(h hash.Hash, seed []byte, n int) []byte {
	out := make([]byte, 0, n)
	var a [sha256.Size]byte
	h.Reset()
	h.Write(seed)
	h.Sum(a[:0]) // A(1)
	for len(out) < n {
		h.Reset()
		h.Write(a[:])
		h.Write(seed)
		out = h.Sum(out)
		// A(i+1) = HMAC(A(i)); Write copies a into the hash state, so
		// summing back into a is safe.
		h.Reset()
		h.Write(a[:])
		h.Sum(a[:0])
	}
	return out[:n]
}

// PHash is P_SHA256(secret, seed) expanded to n bytes.
func PHash(secret, seed []byte, n int) []byte {
	return phash(hmac.New(sha256.New, secret), seed, n)
}

// PRF is the TLS 1.2 PRF: P_SHA256(secret, label || seed).
func PRF(secret []byte, label string, seed []byte, n int) []byte {
	ls := make([]byte, 0, len(label)+len(seed))
	ls = append(ls, label...)
	ls = append(ls, seed...)
	return PHash(secret, ls, n)
}

// Expander amortizes the HMAC keying across the several PRF calls a
// handshake makes under one secret (key expansion plus two Finished
// hashes), and — unlike crypto/hmac — is rekeyable in place: a pooled
// connection calls SetSecret per handshake and never re-allocates MAC
// state. It implements HMAC-SHA256 from one reused SHA-256 instance.
// SetSecret absorbs the inner and outer pad blocks once and saves both
// hash states in expander-owned buffers; each MAC restores them instead
// of compressing the pads again. A keyed MAC costs zero allocations
// (crypto/hmac's New allocates two digests plus pads on every keying).
type Expander struct {
	h            hash.Hash              // single reused SHA-256 instance
	inner, outer []byte                 // h's state after the ipad / opad block, per RFC 2104
	pad          [sha256.BlockSize]byte // padState's block; a local would escape through h.Write
	isum         [sha256.Size]byte
	a            [sha256.Size]byte // P_SHA256's A(i) chain value
	ls           []byte
}

// SetSecret re-keys the expander in place.
func (e *Expander) SetSecret(secret []byte) {
	if e.h == nil {
		e.h = sha256.New()
	}
	k := secret
	if len(k) > sha256.BlockSize {
		e.h.Reset()
		e.h.Write(k)
		k = e.h.Sum(e.isum[:0])
	}
	e.inner = e.padState(e.inner[:0], k, 0x36)
	e.outer = e.padState(e.outer[:0], k, 0x5c)
}

// padState hashes the block (k zero-padded) XOR x and appends the hash
// state to dst.
func (e *Expander) padState(dst, k []byte, x byte) []byte {
	for i := range e.pad {
		e.pad[i] = x
	}
	for i, b := range k {
		e.pad[i] ^= b
	}
	e.h.Reset()
	e.h.Write(e.pad[:])
	var err error
	if a, ok := e.h.(interface{ AppendBinary([]byte) ([]byte, error) }); ok {
		dst, err = a.AppendBinary(dst) // Go 1.24 and later: in place
	} else {
		var state []byte
		state, err = e.h.(encoding.BinaryMarshaler).MarshalBinary()
		dst = append(dst, state...)
	}
	if err != nil {
		panic("prf: saving the SHA-256 state: " + err.Error())
	}
	return dst
}

// restore puts h back in a state padState saved.
func (e *Expander) restore(state []byte) {
	if err := e.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("prf: restoring the SHA-256 state: " + err.Error())
	}
}

// begin starts one MAC: the inner hash has absorbed the inner pad.
func (e *Expander) begin() {
	e.restore(e.inner)
}

// finish completes the MAC begun by begin, appending the tag to dst.
func (e *Expander) finish(dst []byte) []byte {
	inner := e.h.Sum(e.isum[:0])
	e.restore(e.outer)
	e.h.Write(inner)
	return e.h.Sum(dst)
}

// PRF is the TLS 1.2 PRF under the expander's secret.
func (e *Expander) PRF(label string, seed []byte, n int) []byte {
	return e.AppendPRF(make([]byte, 0, n), label, seed, n)
}

// AppendPRF appends n bytes of P_SHA256(secret, label || seed) to dst,
// allocating only if dst lacks capacity — the engines pass per-conn
// scratch so steady-state key expansion is allocation-free. It computes
// A(i) only for the output blocks it returns.
func (e *Expander) AppendPRF(dst []byte, label string, seed []byte, n int) []byte {
	e.ls = append(e.ls[:0], label...)
	e.ls = append(e.ls, seed...)
	base := len(dst)
	for len(dst)-base < n {
		// A(1) = HMAC(label || seed), A(i+1) = HMAC(A(i)); begin/Write
		// copy a into the hash state, so summing back into a is safe.
		e.begin()
		if len(dst) == base {
			e.h.Write(e.ls)
		} else {
			e.h.Write(e.a[:])
		}
		e.finish(e.a[:0])
		// Output block i is HMAC(A(i) || label || seed).
		e.begin()
		e.h.Write(e.a[:])
		e.h.Write(e.ls)
		dst = e.finish(dst)
	}
	return dst[:base+n]
}

// MasterSecret derives the 48-byte master secret from a premaster secret
// and the two hello randoms.
func MasterSecret(premaster, clientRandom, serverRandom []byte) []byte {
	seed := make([]byte, 0, 64)
	seed = append(seed, clientRandom...)
	seed = append(seed, serverRandom...)
	return PRF(premaster, "master secret", seed, 48)
}

// KeyBlock derives n bytes of key material (note the server-random-first
// seed order, per RFC 5246 §6.3).
func KeyBlock(master, serverRandom, clientRandom []byte, n int) []byte {
	seed := make([]byte, 0, 64)
	seed = append(seed, serverRandom...)
	seed = append(seed, clientRandom...)
	return PRF(master, "key expansion", seed, n)
}
