package record

import (
	"bytes"
	"crypto/cipher"
	"errors"
	"io"
	"testing"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/handoff"
)

// linkedConn is a memConn carrying one end of a hand-off.
type linkedConn struct {
	memConn
	link *handoff.Link
	end  handoff.End
}

func (c *linkedConn) Handoff() (*handoff.Link, handoff.End) { return c.link, c.end }

// TestTrafficAEADCacheMatchesNewAEAD checks the AEAD hand-off against a
// freshly built AES-128-GCM: a writer arming a key hands its AEAD to the
// peer, the peer's reader arming the same key takes it, and both must
// seal and open exactly the bytes NewAEAD(key) does. A reader arming any
// other key, or the writer's own end, builds its own AEAD.
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
		link := new(handoff.Link)
		dialer := NewConn(&linkedConn{link: link, end: 0})
		server := NewConn(&linkedConn{link: link, end: 1})
		key, salt := read(16), read(4)
		if err := dialer.ArmWrite(key, salt); err != nil {
			t.Fatal(err)
		}
		if err := server.ArmRead(key, salt); err != nil {
			t.Fatal(err)
		}
		parked, hit := dialer.out.aead, server.in.aead
		if hit != parked {
			t.Fatalf("key %d: the peer's reader did not take the writer's AEAD", i)
		}
		ref, err := NewAEAD(key)
		if err != nil {
			t.Fatal(err)
		}
		nonce, aad := read(12), read(13)
		plain := read(1 + i*37)
		want := ref.Seal(nil, nonce, plain, aad)
		for name, a := range map[string]cipher.AEAD{"writer's": parked, "handed over": hit} {
			if got := a.Seal(nil, nonce, plain, aad); !bytes.Equal(got, want) {
				t.Fatalf("key %d: %s AEAD sealed %x, NewAEAD sealed %x", i, name, got, want)
			}
			if got, err := a.Open(nil, nonce, want, aad); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("key %d: %s AEAD opened NewAEAD's record to %x (%v)", i, name, got, err)
			}
		}
		// The writer's own reader, and a reader of another key, build
		// their own.
		if err := dialer.ArmRead(key, salt); err != nil {
			t.Fatal(err)
		}
		if dialer.in.aead == parked {
			t.Fatalf("key %d: the writer's own reader took its AEAD", i)
		}
		other := append([]byte(nil), key...)
		other[i%16] ^= 1
		if err := server.ArmRead(other, salt); err != nil {
			t.Fatal(err)
		}
		if server.in.aead == parked {
			t.Fatalf("key %d: a reader of another key took the AEAD", i)
		}
	}
	if err := NewConn(&linkedConn{link: new(handoff.Link)}).ArmWrite(make([]byte, 15), make([]byte, 4)); err == nil {
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
