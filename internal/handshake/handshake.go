// Package handshake is the TLS 1.2 handshake layer under both engines:
// handshake-message reassembly over a record.Conn with the running
// transcript hash, the master-secret and key-block derivation (RFC 5246
// §8.1, §6.3), and the ChangeCipherSpec and Finished exchange (§7.4.9).
// Each engine embeds Conn in its pooled per-connection state and drives
// the message flow of its side itself.
package handshake

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"net"

	"tlsshortcuts/internal/prf"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/wire"
)

// maxMsg bounds one handshake message's body, as crypto/tls's
// maxHandshake does: ReadMsg rejects a longer claimed length before it
// buffers the body, so a peer cannot make a connection hold megabytes.
const maxMsg = 1 << 16

// Side is one end of a connection. It selects the Finished label and the
// half of the key block that end writes with.
type Side uint8

const (
	Client Side = iota
	Server
)

var finishedLabel = [2]string{"client finished", "server finished"}

// Conn is one connection's handshake state. Everything resets cheaply
// between connections, so engines pool it.
type Conn struct {
	// Record is the connection's record layer. Handshake messages go
	// through ReadMsg and WriteMsg; engines use it directly for alerts,
	// flushes and application data.
	Record record.Conn

	// buf holds the handshake bytes received on this connection. It only
	// grows until the next Reset, so a body ReadMsg returned stays valid
	// while later messages are read: the client checks the
	// ServerKeyExchange against a certificate chain parsed out of buf.
	buf  []byte
	off  int // consumed prefix of buf
	hash hash.Hash
	ex   prf.Expander // keyed with the master secret once it is known
	// Fixed derivation scratch; capacities round up to the PRF's 32-byte
	// blocks, which it appends whole before truncating.
	seed   [64]byte // the two hello randoms, in either order
	kb     [64]byte // AES-128-GCM key block (40 bytes used)
	master [64]byte // master secret (48 bytes used)
	fin    [36]byte // framed Finished: 4-byte header and 12 bytes of verify_data
	pre    [32]byte // transcript digest
}

// Reset binds c to a new transport: both directions in plaintext, an
// empty transcript, and an empty message buffer that keeps its capacity.
func (c *Conn) Reset(nc net.Conn) {
	c.Record.Reset(nc)
	if c.hash == nil {
		c.hash = sha256.New()
	} else {
		c.hash.Reset()
	}
	c.buf, c.off = c.buf[:0], 0
}

// transcript returns the digest of the handshake messages so far, in the
// connection's scratch (valid until the next call).
func (c *Conn) transcript() []byte { return c.hash.Sum(c.pre[:0]) }

// WriteMsg sends one framed handshake message (header and body) and adds
// it to the transcript.
func (c *Conn) WriteMsg(frame []byte) error {
	c.hash.Write(frame)
	return c.Record.WriteRecord(record.TypeHandshake, frame)
}

// ReadMsg returns the next handshake message, reassembled from however
// many records carry it, and adds it to the transcript; ccs is true when
// a ChangeCipherSpec record arrived instead, between messages. A received
// alert is returned as a *record.AlertError. The Body aliases the
// connection's buffer and stays valid until the next Reset.
func (c *Conn) ReadMsg() (m wire.Msg, ccs bool, err error) {
	for {
		if pend := c.buf[c.off:]; len(pend) >= 4 {
			n := int(pend[1])<<16 | int(pend[2])<<8 | int(pend[3])
			if n > maxMsg {
				err := fmt.Errorf("tls: handshake message of %d bytes exceeds the %d-byte limit", n, maxMsg)
				return wire.Msg{}, false, record.WithAlert(record.AlertInternalError, err)
			}
			if len(pend) >= 4+n {
				raw := pend[:4+n]
				c.off += 4 + n
				c.hash.Write(raw)
				return wire.Msg{Type: raw[0], Body: raw[4:]}, false, nil
			}
		}
		rec, err := c.Record.ReadRecord()
		if err != nil {
			return wire.Msg{}, false, err
		}
		switch rec.Type {
		case record.TypeHandshake:
			c.buf = append(c.buf, rec.Payload...)
		case record.TypeChangeCipherSpec:
			if c.off != len(c.buf) {
				// The peer's next messages come under new keys: one
				// that began before them would mix unprotected bytes
				// into a protected message.
				return wire.Msg{}, false, c.outOfPlace(errors.New("tls: ChangeCipherSpec inside a handshake message"))
			}
			return wire.Msg{}, true, nil
		case record.TypeAlert:
			if len(rec.Payload) != 2 {
				return wire.Msg{}, false, record.WithAlert(record.AlertUnexpectedMessage, errors.New("tls: received malformed alert"))
			}
			return wire.Msg{}, false, &record.AlertError{Code: rec.Payload[1]}
		default:
			return wire.Msg{}, false, c.outOfPlace(fmt.Errorf("tls: unexpected record type %d during handshake", rec.Type))
		}
	}
}

// outOfPlace is a record the handshake cannot take where it arrived,
// answered with unexpected_message. Before the first message crypto/tls
// takes a record that is neither a handshake nor an alert record for
// something other than TLS and answers nothing.
func (c *Conn) outOfPlace(err error) error {
	if c.off == 0 {
		return err
	}
	return record.WithAlert(record.AlertUnexpectedMessage, err)
}

// DeriveMaster derives the master secret from a premaster secret and the
// hello randoms, then the key block from it (see UseMaster). The master
// secret is returned in the connection's scratch, valid until the next
// handshake on c.
func (c *Conn) DeriveMaster(premaster, clientRandom, serverRandom []byte) []byte {
	c.ex.SetSecret(premaster)
	seed := append(append(c.seed[:0], clientRandom...), serverRandom...)
	master := c.ex.AppendPRF(c.master[:0], "master secret", seed, 48)
	c.UseMaster(master, clientRandom, serverRandom)
	return master
}

// UseMaster keys the Finished computations with master, a new or a
// resumed session's, and derives the connection's key block from it.
func (c *Conn) UseMaster(master, clientRandom, serverRandom []byte) {
	c.ex.SetSecret(master)
	seed := append(append(c.seed[:0], serverRandom...), clientRandom...)
	c.ex.AppendPRF(c.kb[:0], "key expansion", seed, 40)
}

// keys returns the write key and implicit nonce salt of side s: the key
// block is the client key, the server key, the client salt, the server
// salt.
func (c *Conn) keys(s Side) (key, salt []byte) {
	return c.kb[16*s : 16*s+16], c.kb[32+4*s : 36+4*s]
}

// SendFinished arms the write direction with s's keys, handing its AEAD
// to the peer before the ChangeCipherSpec that makes the peer arm its
// reader, then sends s's ChangeCipherSpec and Finished.
func (c *Conn) SendFinished(s Side) error {
	pre := c.transcript()
	if err := c.Record.ArmWrite(c.keys(s)); err != nil {
		return err
	}
	if err := c.Record.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	fin := append(c.fin[:0], wire.TypeFinished, 0, 0, 12)
	return c.WriteMsg(c.ex.AppendPRF(fin, finishedLabel[s], pre, 12))
}

// ReadFinished arms the read direction with s's keys and reads s's
// Finished, which must match the transcript up to it; the caller has read
// s's ChangeCipherSpec. A Finished that does not match is answered with a
// handshake_failure alert. handedOver counts a read direction armed with
// the AEAD the peer handed over.
func (c *Conn) ReadFinished(s Side, handedOver *telemetry.Counter) error {
	key, salt := c.keys(s)
	if err := c.Record.ArmReadCounted(key, salt, handedOver); err != nil {
		return err
	}
	pre := c.transcript()
	m, _, err := c.ReadMsg()
	if err != nil {
		return err
	}
	if m.Type != wire.TypeFinished || !hmac.Equal(m.Body, c.ex.AppendPRF(c.fin[:0], finishedLabel[s], pre, 12)) {
		c.Record.WriteAlert(record.AlertHandshakeFailure)
		return fmt.Errorf("tls: bad %s", finishedLabel[s])
	}
	return nil
}
