package handshake

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"net"
	"strings"
	"testing"

	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/wire"
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

// records frames each payload as one plaintext record of type typ.
func records(typ uint8, payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, typ, 3, 3, byte(len(p)>>8), byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// reader returns a Conn reading the byte stream in.
func reader(in []byte) (*Conn, *memConn) {
	mc := &memConn{in: bytes.NewReader(in)}
	c := new(Conn)
	c.Reset(mc)
	return c, mc
}

func frame(typ uint8, bodyLen int) []byte {
	b := []byte{typ, byte(bodyLen >> 16), byte(bodyLen >> 8), byte(bodyLen)}
	for i := 0; i < bodyLen; i++ {
		b = append(b, byte(i*7+int(typ)))
	}
	return b
}

// TestReadMsgReassembly reads the same three messages packed into records
// every way a peer may pack them: one message per record, two messages
// in one record, one message split across two records, and a header
// split across two records. Each layout must give the same messages and
// the same transcript.
func TestReadMsgReassembly(t *testing.T) {
	m1, m2, m3 := frame(wire.TypeServerHello, 70), frame(wire.TypeCertificate, 300), frame(wire.TypeServerHelloDone, 0)
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	layouts := map[string][][]byte{
		"one per record":         {m1, m2, m3},
		"two in one record":      {cat(m1, m2), m3},
		"all in one record":      {cat(m1, m2, m3)},
		"split across records":   {m1, m2[:100], m2[100:], m3},
		"header across records":  {m1, m2[:2], m2[2:], m3},
		"split with a neighbour": {cat(m1, m2[:10]), cat(m2[10:], m3)},
	}
	want := sha256.Sum256(cat(m1, m2, m3))
	for name, recs := range layouts {
		c, _ := reader(records(record.TypeHandshake, recs...))
		for i, m := range [][]byte{m1, m2, m3} {
			got, ccs, err := c.ReadMsg()
			if err != nil || ccs {
				t.Fatalf("%s: message %d: ccs %v, err %v", name, i, ccs, err)
			}
			if got.Type != m[0] || !bytes.Equal(got.Body, m[4:]) {
				t.Fatalf("%s: message %d is type %d with %d bytes, want type %d with %d", name, i, got.Type, len(got.Body), m[0], len(m)-4)
			}
		}
		if got := c.transcript(); !bytes.Equal(got, want[:]) {
			t.Fatalf("%s: transcript %x, want %x", name, got, want)
		}
		if _, _, err := c.ReadMsg(); err == nil {
			t.Fatalf("%s: read past the end of the stream", name)
		}
	}
}

// TestTranscriptHashesLazily interleaves sent and received messages,
// one of them reassembled from three records, one sent while the start
// of that one is already buffered, and requires the transcript to equal
// SHA-256 over the frames in wire order: when it is first asked for,
// and again after more messages. Nothing is hashed before the first
// call, and Reset starts an empty transcript.
func TestTranscriptHashesLazily(t *testing.T) {
	m1, m2, m3 := frame(wire.TypeServerHello, 70), frame(wire.TypeCertificate, 600), frame(wire.TypeServerHelloDone, 0)
	w1, w2 := frame(wire.TypeClientHello, 90), frame(wire.TypeClientKeyExchange, 66)
	c, _ := reader(records(record.TypeHandshake, append(bytes.Clone(m1), m2[:5]...), m2[5:300], m2[300:], m3))
	var sent [][]byte
	step := func(write []byte) {
		t.Helper()
		if write != nil {
			if err := c.WriteMsg(write); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, write)
			return
		}
		m, _, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, append([]byte{m.Type, byte(len(m.Body) >> 16), byte(len(m.Body) >> 8), byte(len(m.Body))}, m.Body...))
	}
	check := func(when string) {
		t.Helper()
		want := sha256.Sum256(bytes.Join(sent, nil))
		if got := c.transcript(); !bytes.Equal(got, want[:]) {
			t.Fatalf("%s: transcript %x, want %x", when, got, want)
		}
	}
	step(nil) // m1, with the start of m2 behind it
	step(w1)
	step(nil) // m2, from three records
	if c.hashed != 0 {
		t.Fatalf("%d bytes hashed before the transcript was asked for", c.hashed)
	}
	check("first call")
	step(w2)
	step(nil) // m3
	check("after two more messages")
	if !bytes.Equal(bytes.Join(sent, nil), bytes.Join([][]byte{m1, w1, m2, w2, m3}, nil)) {
		t.Fatal("the messages read differ from those framed")
	}

	c.Reset(&memConn{in: bytes.NewReader(nil)})
	sent = nil
	check("after Reset")
}

// TestReadMsgRecordTypes pins what ReadMsg makes of each non-handshake
// record: a ChangeCipherSpec between messages is reported and one inside
// a message is an error, an alert becomes a *record.AlertError with its
// code, and anything else is an error.
func TestReadMsgRecordTypes(t *testing.T) {
	c, _ := reader(records(record.TypeChangeCipherSpec, []byte{1}))
	if _, ccs, err := c.ReadMsg(); !ccs || err != nil {
		t.Fatalf("ChangeCipherSpec: ccs %v, err %v", ccs, err)
	}

	c, _ = reader(records(record.TypeAlert, []byte{2, 80}))
	_, _, err := c.ReadMsg()
	var ae *record.AlertError
	if !errors.As(err, &ae) || ae.Code != 80 {
		t.Fatalf("alert 80: got %v, want a *record.AlertError with code 80", err)
	}

	for name, in := range map[string][]byte{
		"one-byte alert":      records(record.TypeAlert, []byte{2}),
		"unknown record type": records(99, []byte{0, 0, 0, 0}),
		"ChangeCipherSpec inside a message": append(records(record.TypeHandshake, frame(wire.TypeFinished, 12)[:6]),
			records(record.TypeChangeCipherSpec, []byte{1})...),
	} {
		c, _ := reader(in)
		if _, _, err := c.ReadMsg(); err == nil || errors.As(err, &ae) {
			t.Fatalf("%s: got %v, want an error that is not an alert", name, err)
		}
	}
}

// TestReadMsgLengthLimit reads a message of exactly maxMsg bytes across
// records, and rejects a header claiming one byte more (or 16 MiB) from
// its first record, before the rest of the body arrives.
func TestReadMsgLengthLimit(t *testing.T) {
	big := frame(wire.TypeCertificate, maxMsg)
	var recs [][]byte
	for b := big; len(b) > 0; {
		n := min(len(b), record.MaxPlaintext)
		recs = append(recs, b[:n])
		b = b[n:]
	}
	c, _ := reader(records(record.TypeHandshake, recs...))
	if m, _, err := c.ReadMsg(); err != nil || len(m.Body) != maxMsg {
		t.Fatalf("a %d-byte message: %d bytes, err %v", maxMsg, len(m.Body), err)
	}

	for _, n := range []int{maxMsg + 1, 1<<24 - 1} {
		hdr := []byte{wire.TypeCertificate, byte(n >> 16), byte(n >> 8), byte(n)}
		c, _ := reader(records(record.TypeHandshake, hdr))
		if _, _, err := c.ReadMsg(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("a header claiming %d bytes: got %v, want the length limit", n, err)
		}
	}
}

// sendFinished is SendFinished with byte flip of the verify_data
// inverted, or unchanged when flip is negative.
func sendFinished(c *Conn, s Side, flip int) error {
	if flip < 0 {
		return c.SendFinished(s)
	}
	pre := c.transcript()
	if err := c.Record.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	if err := c.Record.ArmWrite(c.keys(s)); err != nil {
		return err
	}
	fin := c.ex.AppendPRF(append(c.fin[:0], wire.TypeFinished, 0, 0, 12), finishedLabel[s], pre, 12)
	fin[4+flip] ^= 1
	return c.WriteMsg(fin)
}

// TestFinished sends each side's Finished after one handshake message
// under keys both ends derived from one premaster, and reads it at the
// other end: as sent it is accepted, and with any one byte of its
// verify_data flipped it is rejected and answered with a
// handshake_failure alert.
func TestFinished(t *testing.T) {
	premaster := bytes.Repeat([]byte{7}, 32)
	cr, sr := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)
	hello := frame(wire.TypeClientHello, 40)
	for _, s := range []Side{Client, Server} {
		for flip := -1; flip < 12; flip++ {
			out := &memConn{}
			var w Conn
			w.Reset(out)
			master := w.DeriveMaster(Client, premaster, cr, sr, nil)
			if err := w.WriteMsg(hello); err != nil {
				t.Fatal(err)
			}
			if err := sendFinished(&w, s, flip); err != nil {
				t.Fatal(err)
			}
			if err := w.Record.Flush(); err != nil {
				t.Fatal(err)
			}

			r, rc := reader(out.out.Bytes())
			r.UseMaster(Server, master, cr, sr, nil)
			if _, _, err := r.ReadMsg(); err != nil {
				t.Fatal(err)
			}
			if _, ccs, err := r.ReadMsg(); !ccs || err != nil {
				t.Fatalf("%s: ChangeCipherSpec: ccs %v, err %v", finishedLabel[s], ccs, err)
			}
			err := r.ReadFinished(s, nil)
			alert := rc.out.Bytes()
			if flip < 0 {
				if err != nil || len(alert) != 0 {
					t.Fatalf("%s as sent: err %v, wrote %x", finishedLabel[s], err, alert)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s with byte %d flipped was accepted", finishedLabel[s], flip)
			}
			if want := records(record.TypeAlert, []byte{2, record.AlertHandshakeFailure}); !bytes.Equal(alert, want) {
				t.Fatalf("%s with byte %d flipped: wrote %x, want alert %x", finishedLabel[s], flip, alert, want)
			}
		}
	}
}
