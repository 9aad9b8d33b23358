package attacker_test

import (
	"bytes"
	"testing"

	"tlsshortcuts/internal/attacker"
)

// FuzzAttackerLoad feeds arbitrary bytes to the TLSCAP01 reader, which
// must never panic, and requires every capture it accepts to Save back
// to the same bytes: a capture is its magic and whole segments, nothing
// more, so accepting anything else would mean dropping or inventing
// bytes. The committed seeds in testdata/fuzz/FuzzAttackerLoad hold a
// valid capture, bad magic, a bad direction byte, a truncated segment
// header and a truncated segment.
func FuzzAttackerLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := attacker.Load(data)
		if err != nil {
			return
		}
		if got := c.Save(); !bytes.Equal(got, data) {
			t.Fatalf("Load then Save changed the capture:\n in  %q\n out %q", data, got)
		}
	})
}
