package prf

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"hash"
	"testing"
)

// marshalOnly hides the SHA-256 hash's AppendBinary, so an expander built
// on it saves its pad states through MarshalBinary, as it does on
// toolchains before Go 1.24.
type marshalOnly struct{ hash.Hash }

func (m marshalOnly) MarshalBinary() ([]byte, error) {
	return m.Hash.(encoding.BinaryMarshaler).MarshalBinary()
}

func (m marshalOnly) UnmarshalBinary(b []byte) error {
	return m.Hash.(encoding.BinaryUnmarshaler).UnmarshalBinary(b)
}

// TestExpanderMatchesReference pins the hand-rolled rekeyable HMAC
// against the crypto/hmac-based package functions for assorted secret
// and output lengths (including secrets longer than the SHA-256 block,
// which take the hash-the-key path, and the lengths 0, 32, 64 and 96,
// where the expansion ends exactly on a block), once through each way of
// saving the pad states.
func TestExpanderMatchesReference(t *testing.T) {
	secrets := [][]byte{
		{},
		[]byte("k"),
		bytes.Repeat([]byte{0xA5}, 48),
		bytes.Repeat([]byte{0x5A}, 64),
		bytes.Repeat([]byte{0x77}, 200), // > block size
	}
	seeds := [][]byte{{}, []byte("seed"), bytes.Repeat([]byte{1, 2, 3}, 30)}
	for _, tc := range []struct {
		name string
		h    func() hash.Hash
	}{
		{"sha256", sha256.New},
		{"marshal_only", func() hash.Hash { return marshalOnly{sha256.New()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, secret := range secrets {
				e := &Expander{h: tc.h()}
				e.SetSecret(secret)
				for _, seed := range seeds {
					for _, n := range []int{0, 1, 12, 32, 40, 48, 64, 96, 100} {
						want := PRF(secret, "test label", seed, n)
						got := e.PRF("test label", seed, n)
						if !bytes.Equal(got, want) {
							t.Fatalf("Expander diverges from reference (len(secret)=%d len(seed)=%d n=%d)", len(secret), len(seed), n)
						}
						dst := make([]byte, 0, n)
						if got2 := e.AppendPRF(dst, "test label", seed, n); !bytes.Equal(got2, want) {
							t.Fatalf("AppendPRF diverges (n=%d)", n)
						}
					}
				}
				// Rekeying in place must behave like a fresh expander.
				e.SetSecret([]byte("other"))
				if !bytes.Equal(e.PRF("l", []byte("s"), 32), PRF([]byte("other"), "l", []byte("s"), 32)) {
					t.Fatal("SetSecret rekey diverges from reference")
				}
			}
		})
	}
}

// keySchedule runs one handshake side's PRF calls: the master secret,
// the key block and both Finished values. Like the engines' scratch, the
// output buffers are rounded up to whole PRF blocks.
func keySchedule(e *Expander, premaster, seed, transcript []byte, master, kb *[64]byte, fin *[32]byte) {
	e.SetSecret(premaster)
	m := e.AppendPRF(master[:0], "master secret", seed, 48)
	e.SetSecret(m)
	e.AppendPRF(kb[:0], "key expansion", seed, 40)
	e.AppendPRF(fin[:0], "client finished", transcript, 12)
	e.AppendPRF(fin[:0], "server finished", transcript, 12)
}

// With AppendBinary (Go 1.24 and later) a keyed expander saves its pad
// states in place, so a whole key schedule allocates nothing.
func TestExpanderAllocationFree(t *testing.T) {
	a, ok := sha256.New().(interface{ AppendBinary([]byte) ([]byte, error) })
	if !ok {
		t.Skip("SHA-256 has no AppendBinary before Go 1.24; MarshalBinary allocates")
	}
	state := make([]byte, 0, 128)
	if testing.AllocsPerRun(10, func() { state, _ = a.AppendBinary(state[:0]) }) != 0 {
		t.Skip("SHA-256's AppendBinary allocates in this build, as it does under the race detector")
	}
	var e Expander
	premaster, seed, transcript := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 64), bytes.Repeat([]byte{3}, 32)
	var master, kb [64]byte
	var fin [32]byte
	keySchedule(&e, premaster, seed, transcript, &master, &kb, &fin) // sizes the buffers
	if allocs := testing.AllocsPerRun(100, func() {
		keySchedule(&e, premaster, seed, transcript, &master, &kb, &fin)
	}); allocs != 0 {
		t.Fatalf("key schedule allocates %v times, want 0", allocs)
	}
}

// BenchmarkExpander times one handshake side's four PRF calls under a
// reused expander.
func BenchmarkExpander(b *testing.B) {
	var e Expander
	premaster, seed, transcript := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 64), bytes.Repeat([]byte{3}, 32)
	var master, kb [64]byte
	var fin [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySchedule(&e, premaster, seed, transcript, &master, &kb, &fin)
	}
}
