package drbg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// stream reads n bytes from r.
func stream(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKnownAnswer computes block 0 of New([]byte("seed")) from the
// package definition: key = SHA-256(be64(len) ‖ part ‖ …), then
// block_i = SHA-256(key ‖ be64(i)).
func TestKnownAnswer(t *testing.T) {
	key := sha256.Sum256(append(binary.BigEndian.AppendUint64(nil, 4), "seed"...))
	var want []byte
	for i := uint64(0); i < 2; i++ {
		blk := sha256.Sum256(binary.BigEndian.AppendUint64(key[:], i))
		want = append(want, blk[:]...)
	}
	if got := stream(t, New([]byte("seed")), 64); !bytes.Equal(got, want) {
		t.Fatalf("New(\"seed\") streams\n  %x\nwant\n  %x", got, want)
	}
	// Reads that straddle block boundaries continue the same stream.
	r := New([]byte("seed"))
	got := append(stream(t, r, 5), stream(t, r, 40)...)
	got = append(got, stream(t, r, 19)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("split reads stream\n  %x\nwant\n  %x", got, want)
	}
}

// TestConstructorsAgree requires every constructor and reseed over the
// same parts to give the same stream, including parts longer than the
// 192-byte stack buffer the key derivation uses.
func TestConstructorsAgree(t *testing.T) {
	long := strings.Repeat("L", 300)
	for _, parts := range [][3]string{
		{"seed", "domain.example", "daily|ticket|3|1"},
		{"", "", ""},
		{long, "b", "c"},
		{"a", long, long},
	} {
		p0, s1, s2 := parts[0], parts[1], parts[2]
		want := stream(t, New([]byte(p0), []byte(s1), []byte(s2)), 100)
		var reseeded Reader
		stream(t, &reseeded, 7) // a used reader: reseeding must rewind it
		reseeded.ReseedParts([]byte(p0), s1, s2)
		for name, r := range map[string]io.Reader{
			"NewString":   NewString(p0, s1, s2),
			"NewParts":    NewParts([]byte(p0), s1, s2),
			"ReseedParts": &reseeded,
		} {
			if got := stream(t, r, 100); !bytes.Equal(got, want) {
				t.Errorf("parts of lengths %d/%d/%d: %s differs from New", len(p0), len(s1), len(s2), name)
			}
		}

		want = stream(t, New([]byte(p0), []byte(s1)), 100)
		r := New([]byte("previous"))
		stream(t, r, 33)
		r.Reseed([]byte(p0), []byte(s1))
		if got := stream(t, r, 100); !bytes.Equal(got, want) {
			t.Errorf("parts of lengths %d/%d: Reseed differs from New", len(p0), len(s1))
		}
	}
}

// TestPartsAreLengthPrefixed requires the part boundaries to matter.
func TestPartsAreLengthPrefixed(t *testing.T) {
	a := stream(t, NewString("ab", "c"), 32)
	b := stream(t, NewString("a", "bc"), 32)
	c := stream(t, NewString("abc"), 32)
	if bytes.Equal(a, b) || bytes.Equal(a, c) || bytes.Equal(b, c) {
		t.Fatal("(\"ab\",\"c\"), (\"a\",\"bc\") and (\"abc\") do not give three different streams")
	}
}
