package record

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

// memConn is a net.Conn over memory: reads drain in, writes append to
// out. The record layer calls no other method.
type memConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// fuzzKey and fuzzSalt protect every armed direction in FuzzReadRecord;
// the committed sealed seed was written under them.
var fuzzKey, fuzzSalt = []byte("FuzzReadRecord-k"), []byte("salt")

// readerOver returns a Conn reading in, with its read direction armed
// when armed is set.
func readerOver(t *testing.T, in []byte, armed bool) *Conn {
	t.Helper()
	rc := NewConn(&memConn{in: bytes.NewReader(in)})
	if armed {
		if err := rc.ArmRead(fuzzKey, fuzzSalt); err != nil {
			t.Fatal(err)
		}
	}
	return rc
}

// FuzzReadRecord feeds one input to the record layer three ways. As a
// byte stream it goes to ReadRecord on a plaintext Conn, which must
// return each frame exactly as the input holds it until an error ends
// the stream, and on an AES-GCM-armed Conn, whose records must be
// plaintext ChangeCipherSpec frames or open under the key. As an
// application-data payload it goes through an armed writer and reader
// and must come back unchanged, and the sealed frame with any one byte
// changed must never come back as application data. The committed seeds
// in testdata/fuzz/FuzzReadRecord hold a plaintext handshake record, a
// record sealed under fuzzKey, a truncated header and an oversized
// length.
func FuzzReadRecord(f *testing.F) {
	aead, err := NewAEAD(fuzzKey)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, armed := range []bool{false, true} {
			rc := readerOver(t, data, armed)
			for off := 0; ; {
				rec, err := rc.ReadRecord()
				if err != nil {
					break
				}
				n := int(binary.BigEndian.Uint16(data[off+3 : off+5]))
				typ, frame := data[off], data[off+5:off+5+n]
				off += 5 + n
				want := frame
				if armed && typ != TypeChangeCipherSpec {
					if want, err = OpenPayload(aead, fuzzSalt, typ, frame); err != nil {
						t.Fatalf("armed reader returned a type %d record that does not open: %v", typ, err)
					}
				}
				if rec.Type != typ || !bytes.Equal(rec.Payload, want) {
					t.Fatalf("armed=%v: read type %d payload %x, input frame is type %d payload %x", armed, rec.Type, rec.Payload, typ, want)
				}
			}
		}

		payload := data
		if len(payload) > MaxPlaintext {
			payload = payload[:MaxPlaintext]
		}
		out := &memConn{}
		w := NewConn(out)
		if err := w.ArmWrite(fuzzKey, fuzzSalt); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(TypeAppData, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		sealed := out.out.Bytes()
		rec, err := readerOver(t, sealed, true).ReadRecord()
		if err != nil || rec.Type != TypeAppData || !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("round trip of %d bytes: type %d, %d bytes back, err %v", len(payload), rec.Type, len(rec.Payload), err)
		}

		// Every byte of the header, explicit nonce and tag, and a stride
		// through the ciphertext.
		bad := make([]byte, len(sealed))
		step := 1 + len(sealed)/64
		for i := range sealed {
			if i >= 13 && i < len(sealed)-16 && i%step != 0 {
				continue
			}
			copy(bad, sealed)
			bad[i] ^= byte(i) | 1
			if rec, err := readerOver(t, bad, true).ReadRecord(); err == nil && rec.Type == TypeAppData {
				t.Fatalf("sealed frame with byte %d changed read back as application data", i)
			}
		}
	})
}
