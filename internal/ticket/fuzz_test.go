package ticket

import (
	"bytes"
	"testing"
	"time"

	"tlsshortcuts/internal/session"
)

// fuzzKeys seal and open in FuzzTicketOpen, one per format; the
// committed sealed seeds were written under them.
var fuzzKeys = []*STEK{
	Derive([]byte("FuzzTicketOpen"), FormatRFC5077),
	Derive([]byte("FuzzTicketOpen"), FormatMbedTLS),
	Derive([]byte("FuzzTicketOpen"), FormatSChannel),
}

// fuzzState builds a session state from the input's leading bytes.
func fuzzState(data []byte) *session.State {
	var b [2 + 2 + 8 + 48]byte
	copy(b[:], data)
	st := new(session.State)
	if err := session.UnmarshalInto(st, b[:]); err != nil {
		panic(err)
	}
	return st
}

// FuzzTicketOpen feeds arbitrary bytes to every ticket decoder in all
// three formats: FormatOf, KeyName, IVOf, ExtractKeyID, DetectKeyID
// (against the input itself and against a sealed ticket, both ways) and
// each key's OpenInto must not panic, and a ticket that opens must have
// its key's format and key name. A state built from the input, sealed by
// each key under an IV from the input, must open to the same state,
// and two tickets that key sealed must give its key name to DetectKeyID.
// The committed seeds in testdata/fuzz/FuzzTicketOpen hold a ticket
// sealed by each key, the same tickets truncated and with one byte
// changed, the SChannel magic alone, and an empty input.
func FuzzTicketOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		FormatOf(data)
		KeyName(data)
		IVOf(data)
		ExtractKeyID(data)
		DetectKeyID(data, data)

		want := fuzzState(data)
		var iv [16]byte
		copy(iv[:], data[min(len(data), 60):])
		for _, k := range fuzzKeys {
			var st session.State
			if k.OpenInto(&st, data) {
				if f, ok := FormatOf(data); !ok || f != k.Format || !bytes.Equal(KeyName(data), k.Name) {
					t.Fatalf("%v: a ticket that opened reads as format %v (%v) with key name %x", k.Format, f, ok, KeyName(data))
				}
			}

			tkt, err := k.Seal(want, bytes.NewReader(iv[:]))
			if err != nil {
				t.Fatal(err)
			}
			if !k.OpenInto(&st, tkt) || !bytes.Equal(st.AppendMarshal(nil), want.AppendMarshal(nil)) {
				t.Fatalf("%v: sealed %+v, opened %+v", k.Format, want, st)
			}
			DetectKeyID(data, tkt)
			DetectKeyID(tkt, data)
			other, err := k.Seal(&session.State{CreatedAt: time.Unix(0, 0)}, bytes.NewReader(make([]byte, 16)))
			if err != nil {
				t.Fatal(err)
			}
			if id := DetectKeyID(tkt, other); !bytes.Equal(id, k.header()) {
				t.Fatalf("%v: two tickets of one key give key ID %x, want %x", k.Format, id, k.header())
			}
		}
	})
}
