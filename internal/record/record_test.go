package record

import (
	"bytes"
	"crypto/cipher"
	"errors"
	"io"
	"testing"

	"tlsshortcuts/internal/drbg"
)

// TestTrafficAEADCacheMatchesNewAEAD checks the AEAD cache against a
// freshly built AES-128-GCM: the first arm of a key constructs and
// parks its AEAD, the second consumes it, and both must seal and open
// exactly the bytes NewAEAD(key) does.
func TestTrafficAEADCacheMatchesNewAEAD(t *testing.T) {
	rnd := drbg.NewString("record-test|aead")
	read := func(n int) []byte {
		b := make([]byte, n)
		if _, err := rnd.Read(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := 0; i < 64; i++ {
		key := read(16)
		parked, err := trafficAEAD(key)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := trafficAEAD(key)
		if err != nil {
			t.Fatal(err)
		}
		if hit != parked {
			t.Fatalf("key %d: second arm did not take the parked AEAD", i)
		}
		ref, err := NewAEAD(key)
		if err != nil {
			t.Fatal(err)
		}
		nonce, aad := read(12), read(13)
		plain := read(1 + i*37)
		want := ref.Seal(nil, nonce, plain, aad)
		for name, a := range map[string]cipher.AEAD{"parked": parked, "cached": hit} {
			if got := a.Seal(nil, nonce, plain, aad); !bytes.Equal(got, want) {
				t.Fatalf("key %d: %s AEAD sealed %x, NewAEAD sealed %x", i, name, got, want)
			}
			if got, err := a.Open(nil, nonce, want, aad); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("key %d: %s AEAD opened NewAEAD's record to %x (%v)", i, name, got, err)
			}
		}
		// Consumed: the next arm of the same key builds a new AEAD.
		next, err := trafficAEAD(key)
		if err != nil {
			t.Fatal(err)
		}
		if next == parked {
			t.Fatalf("key %d: a consumed AEAD was handed out again", i)
		}
		if _, err := trafficAEAD(key); err != nil { // drain what next parked
			t.Fatal(err)
		}
	}
	if _, err := trafficAEAD(make([]byte, 15)); err == nil {
		t.Fatal("a 15-byte key was accepted")
	}
}

// TestReadRecordSequence replays, reorders and drops protected records
// between an armed writer and reader: the additional data carries the
// reader's own sequence number (RFC 5246 §6.2.3.3), so the first record
// out of place fails to open, although its frame carries a valid
// explicit nonce and tag.
func TestReadRecordSequence(t *testing.T) {
	out := &memConn{}
	w := NewConn(out)
	if err := w.ArmWrite(fuzzKey, fuzzSalt); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, msg := range []string{"first", "second", "third"} {
		if err := w.WriteRecord(TypeAppData, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), out.out.Bytes()...))
		out.out.Reset()
	}
	first, second, third := frames[0], frames[1], frames[2]
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	for _, tc := range []struct {
		name   string
		stream []byte
		opens  []string // payloads read before the first failure
	}{
		{"in order", cat(first, second, third), []string{"first", "second", "third"}},
		{"replay", cat(first, first, second), []string{"first"}},
		{"reorder", cat(second, first, third), nil},
		{"drop", cat(first, third), []string{"first"}},
	} {
		rc := readerOver(t, tc.stream, true)
		for i := 0; ; i++ {
			rec, err := rc.ReadRecord()
			if i == len(tc.opens) {
				if err == nil {
					t.Fatalf("%s: record %d opened as %q, want a failure", tc.name, i, rec.Payload)
				}
				if tc.name == "in order" && !errors.Is(err, io.EOF) {
					t.Fatalf("%s: stream ended with %v, want EOF", tc.name, err)
				}
				break
			}
			if err != nil || string(rec.Payload) != tc.opens[i] {
				t.Fatalf("%s: record %d read %q, %v; want %q", tc.name, i, rec.Payload, err, tc.opens[i])
			}
		}
	}
}
