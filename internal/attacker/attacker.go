// Package attacker is the end-to-end harm proof of §7: a passive tap
// records a TLS conversation off the wire; later — when server secret
// state leaks — the recording is parsed and retrospectively decrypted.
// Captures persist in a simple TLSCAP01 file format so collections can
// wait for the keys to arrive (the paper's ex post facto workflow).
package attacker

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"tlsshortcuts/internal/handoff"
	"tlsshortcuts/internal/prf"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/wire"
)

// Segment is a contiguous run of bytes in one direction.
type Segment struct {
	FromClient bool
	Data       []byte
}

// Conversation is an ordered passive recording of both directions.
type Conversation struct {
	Segments []Segment
}

// Tap wraps a client-side net.Conn and records everything that crosses
// it. It is itself a net.Conn, so it drops into tlsclient.Handshake.
type Tap struct {
	net.Conn
	mu   sync.Mutex
	conv Conversation
}

// NewTap wraps conn.
func NewTap(conn net.Conn) *Tap { return &Tap{Conn: conn} }

// Handoff passes the wrapped connection's hand-off through: a tap
// records bytes and changes none, so both ends may still take it.
func (t *Tap) Handoff() (*handoff.Link, handoff.End) { return handoff.Of(t.Conn) }

func (t *Tap) record(fromClient bool, b []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	segs := t.conv.Segments
	if n := len(segs); n > 0 && segs[n-1].FromClient == fromClient {
		segs[n-1].Data = append(segs[n-1].Data, b...)
		t.conv.Segments = segs
		return
	}
	t.conv.Segments = append(segs, Segment{FromClient: fromClient, Data: append([]byte(nil), b...)})
}

func (t *Tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.record(false, p[:n])
	}
	return n, err
}

func (t *Tap) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	if n > 0 {
		t.record(true, p[:n])
	}
	return n, err
}

// Conversation returns a deep copy of the recording so far. The snapshot
// shares nothing with the live tap, so it can be parsed (or saved) while
// the wrapped connection keeps flowing.
func (t *Tap) Conversation() *Conversation {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Conversation{}
	if len(t.conv.Segments) > 0 {
		c.Segments = make([]Segment, len(t.conv.Segments))
		for i, s := range t.conv.Segments {
			c.Segments[i] = Segment{FromClient: s.FromClient, Data: append([]byte(nil), s.Data...)}
		}
	}
	return c
}

// ---- TLSCAP01 persistence ----

var capMagic = []byte("TLSCAP01")

// BadDirectionError reports a TLSCAP01 segment header whose direction
// byte is neither 0 (server-to-client) nor 1 (client-to-server). A
// corrupted capture must fail loudly: silently folding unknown bytes
// into one direction produced plausible-looking garbage transcripts.
type BadDirectionError struct {
	Offset int  // byte offset of the direction byte within the blob
	Dir    byte // the invalid value found there
}

func (e *BadDirectionError) Error() string {
	return fmt.Sprintf("attacker: invalid direction byte 0x%02x at offset %d", e.Dir, e.Offset)
}

// Save serializes the conversation.
func (c *Conversation) Save() []byte {
	out := append([]byte(nil), capMagic...)
	for _, s := range c.Segments {
		dir := byte(0)
		if s.FromClient {
			dir = 1
		}
		out = append(out, dir)
		out = binary.BigEndian.AppendUint32(out, uint32(len(s.Data)))
		out = append(out, s.Data...)
	}
	return out
}

// SaveFile writes the conversation to path.
func (c *Conversation) SaveFile(path string) error {
	return os.WriteFile(path, c.Save(), 0o644)
}

// Load parses a TLSCAP01 blob.
func Load(b []byte) (*Conversation, error) {
	if !bytes.HasPrefix(b, capMagic) {
		return nil, errors.New("attacker: not a TLSCAP01 capture")
	}
	off := len(capMagic)
	b = b[len(capMagic):]
	c := &Conversation{}
	for len(b) > 0 {
		if len(b) < 5 {
			return nil, errors.New("attacker: truncated capture")
		}
		if dir := b[0]; dir > 1 {
			return nil, &BadDirectionError{Offset: off, Dir: dir}
		}
		n := int(binary.BigEndian.Uint32(b[1:5]))
		if len(b) < 5+n {
			return nil, errors.New("attacker: truncated capture segment")
		}
		c.Segments = append(c.Segments, Segment{FromClient: b[0] == 1, Data: append([]byte(nil), b[5:5+n]...)})
		b = b[5+n:]
		off += 5 + n
	}
	return c, nil
}

// LoadFile reads a capture written by SaveFile.
func LoadFile(path string) (*Conversation, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(b)
}

// ---- parsing ----

// EncRecord is one protected record from the recording.
type EncRecord struct {
	FromClient bool
	Type       uint8
	Payload    []byte // explicit nonce || ciphertext || tag
}

// Recovered is the parsed view of a conversation: everything a passive
// observer knows before any key material leaks.
type Recovered struct {
	Suite         uint16
	ClientRandom  []byte
	ServerRandom  []byte
	SessionID     []byte
	Resumed       bool // abbreviated handshake (no Certificate seen)
	OfferedTicket []byte
	IssuedTicket  []byte
	DHPrime       []byte // FFDH modulus from the ServerKeyExchange, if DHE
	Encrypted     []EncRecord
}

// Message is one decrypted application-data record.
type Message struct {
	FromClient bool
	Plain      []byte
}

// Parse reconstructs the handshake transcript and the protected records
// from a recording.
func Parse(conv *Conversation) (*Recovered, error) {
	rec := &Recovered{}
	sawCert := false
	for _, dir := range []bool{true, false} {
		var stream []byte
		for _, s := range conv.Segments {
			if s.FromClient == dir {
				stream = append(stream, s.Data...)
			}
		}
		armed := false
		var hsBuf []byte
		for len(stream) >= 5 {
			typ := stream[0]
			n := int(binary.BigEndian.Uint16(stream[3:5]))
			if len(stream) < 5+n {
				break // trailing partial record
			}
			payload := stream[5 : 5+n]
			stream = stream[5+n:]
			switch {
			case typ == record.TypeChangeCipherSpec:
				armed = true
			case armed:
				rec.Encrypted = append(rec.Encrypted, EncRecord{FromClient: dir, Type: typ, Payload: append([]byte(nil), payload...)})
			case typ == record.TypeHandshake:
				hsBuf = append(hsBuf, payload...)
			}
		}
		msgs, err := wire.ParseMsgs(hsBuf)
		if err != nil {
			return nil, fmt.Errorf("attacker: handshake parse: %w", err)
		}
		for _, m := range msgs {
			switch m.Type {
			case wire.TypeClientHello:
				var ch wire.ClientHello
				if err := wire.ParseClientHelloInto(&ch, m.Body); err != nil {
					return nil, err
				}
				rec.ClientRandom = ch.Random[:]
				rec.OfferedTicket = ch.Ticket
			case wire.TypeServerHello:
				var sh wire.ServerHello
				if err := wire.ParseServerHelloInto(&sh, m.Body); err != nil {
					return nil, err
				}
				rec.ServerRandom = sh.Random[:]
				rec.SessionID = sh.SessionID
				rec.Suite = sh.Suite
			case wire.TypeCertificate:
				sawCert = true
			case wire.TypeServerKeyExchange:
				// The ServerHello precedes the SKE in the same direction,
				// so rec.Suite is already populated here.
				if wire.SuiteKex(rec.Suite) == wire.KexDHE {
					var ske wire.SKE
					if err := wire.ParseSKEInto(&ske, wire.KexDHE, m.Body); err != nil {
						return nil, err
					}
					rec.DHPrime = append([]byte(nil), ske.P...)
				}
			case wire.TypeNewSessionTicket:
				nst, err := wire.ParseNewSessionTicket(m.Body)
				if err != nil {
					return nil, err
				}
				rec.IssuedTicket = nst.Ticket
			}
		}
	}
	if rec.ClientRandom == nil || rec.ServerRandom == nil {
		return nil, errors.New("attacker: capture missing hello exchange")
	}
	rec.Resumed = !sawCert
	return rec, nil
}

// MasterFromSTEK opens the conversation's ticket with stolen STEKs and
// returns the recovered 48-byte master secret. The issued ticket seals
// this very connection's state; the offered ticket (on resumption) seals
// the same master under an earlier key.
func (r *Recovered) MasterFromSTEK(keys ...*ticket.STEK) ([]byte, error) {
	for _, tkt := range [][]byte{r.IssuedTicket, r.OfferedTicket} {
		if len(tkt) == 0 {
			continue
		}
		for _, k := range keys {
			if st := k.Open(tkt); st != nil {
				return append([]byte(nil), st.MasterSecret[:]...), nil
			}
		}
	}
	return nil, errors.New("attacker: no supplied STEK opens the captured tickets")
}

// Decrypt derives the record keys from the master secret and the captured
// hello randoms, then decrypts every protected application-data record.
func (r *Recovered) Decrypt(master []byte) ([]Message, error) {
	if len(master) != 48 {
		return nil, fmt.Errorf("attacker: master secret must be 48 bytes, got %d", len(master))
	}
	kb := prf.KeyBlock(master, r.ServerRandom, r.ClientRandom, 40)
	cliAEAD, err := record.NewAEAD(kb[0:16])
	if err != nil {
		return nil, err
	}
	srvAEAD, err := record.NewAEAD(kb[16:32])
	if err != nil {
		return nil, err
	}
	var out []Message
	for _, er := range r.Encrypted {
		aead, salt := srvAEAD, kb[36:40]
		if er.FromClient {
			aead, salt = cliAEAD, kb[32:36]
		}
		plain, err := record.OpenPayload(aead, salt, er.Type, er.Payload)
		if err != nil {
			return nil, fmt.Errorf("attacker: record decrypt failed: %w", err)
		}
		if er.Type == record.TypeAppData {
			out = append(out, Message{FromClient: er.FromClient, Plain: plain})
		}
	}
	return out, nil
}
