// Package record implements the TLS 1.2 record layer: framing, and
// AES-128-GCM protection with the TLS 1.2 nonce construction (4-byte
// implicit salt from the key block, 8-byte explicit nonce carried on the
// wire — which is what lets a passive attacker with the master secret
// decrypt a recording after the fact).
package record

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"tlsshortcuts/internal/handoff"
	"tlsshortcuts/internal/telemetry"
)

// Record content types.
const (
	TypeChangeCipherSpec uint8 = 20
	TypeAlert            uint8 = 21
	TypeHandshake        uint8 = 22
	TypeAppData          uint8 = 23
)

const recordVersion uint16 = 0x0303

// MaxPlaintext bounds one record's payload.
const MaxPlaintext = 16384

// Record is one TLS record as read off the wire.
type Record struct {
	Type    uint8
	Payload []byte
}

// halfConn is one direction's crypto state.
type halfConn struct {
	aead cipher.AEAD
	salt [4]byte
	seq  uint64
	// nonce and aadBuf are scratch handed to the AEAD. They live on the
	// (heap-resident) connection rather than the stack because slices
	// passed through the cipher.AEAD interface escape: stack locals here
	// would cost two allocations per record.
	nonce  [12]byte
	aadBuf [13]byte
}

// Conn frames records over an underlying net.Conn and applies AEAD
// protection once each direction's keys are armed. Outgoing records
// queue in pend until the next ReadRecord, WriteAlert or Flush hands
// them to the transport in one write: one pipe lock and one peer wakeup
// per flight instead of per record, with the byte stream unchanged.
type Conn struct {
	c       net.Conn
	in, out halfConn
	// hdr is the reusable frame-header scratch for ReadRecord (reads
	// through the net.Conn interface escape their buffer).
	hdr [5]byte
	// rbuf is the reusable incoming-record scratch: a Record's Payload is
	// only valid until the next ReadRecord on the same Conn.
	rbuf []byte
	pend []byte // queued outgoing records
}

// maxPend bounds the pending flight; one larger than this is flushed
// eagerly. Handshake flights run ~2 KB, so steady state never hits the
// bound.
const maxPend = 8 << 10

// NewConn wraps c; both directions start in plaintext. Writes queue
// until the next read, so a caller that never reads again must Flush.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Reset rebinds the connection to c and clears both directions' crypto
// state, keeping the frame scratch buffers. The engines pool their
// handshake state across connections; nothing a caller retains aliases
// these buffers (payloads are copied out before the next read).
func (rc *Conn) Reset(c net.Conn) {
	rc.c = c
	rc.in = halfConn{}
	rc.out = halfConn{}
	rc.pend = rc.pend[:0]
}

// Link returns the transport's hand-off, or nil when it has none.
func (rc *Conn) Link() *handoff.Link {
	link, _ := handoff.Of(rc.c)
	return link
}

// ArmWrite switches the write direction to AES-128-GCM and hands its
// AEAD to the peer's reader through the transport's hand-off.
func (rc *Conn) ArmWrite(key, salt []byte) error {
	aead, err := NewAEAD(key)
	if err != nil {
		return err
	}
	link, end := handoff.Of(rc.c)
	link.SetAEAD(end, key, aead)
	rc.out.arm(aead, salt)
	return nil
}

// ArmRead switches the read direction to AES-128-GCM, with the AEAD the
// peer's writer handed over for the same key when there is one. GCM
// state is read-only after construction, so both ends may use one AEAD.
func (rc *Conn) ArmRead(key, salt []byte) error { return rc.ArmReadCounted(key, salt, nil) }

// ArmReadCounted is ArmRead counting into handedOver (nil counts
// nothing) when the peer's AEAD is taken.
func (rc *Conn) ArmReadCounted(key, salt []byte, handedOver *telemetry.Counter) error {
	link, end := handoff.Of(rc.c)
	aead := link.PeerAEAD(end, key)
	if aead != nil {
		handedOver.Inc()
	} else {
		var err error
		if aead, err = NewAEAD(key); err != nil {
			return err
		}
	}
	rc.in.arm(aead, salt)
	return nil
}

func (h *halfConn) arm(aead cipher.AEAD, salt []byte) {
	h.aead = aead
	copy(h.salt[:], salt)
	h.seq = 0
}

// aad builds one record's additional data in b's storage: the sequence
// number, then the record header (type, version) with the plaintext
// length (RFC 5246 §6.2.3.3).
func aad(b *[13]byte, seq uint64, typ uint8, vers uint16, n int) []byte {
	binary.BigEndian.PutUint64(b[:8], seq)
	b[8] = typ
	binary.BigEndian.PutUint16(b[9:11], vers)
	binary.BigEndian.PutUint16(b[11:13], uint16(n))
	return b[:]
}

// sealInto appends the protected payload (explicit nonce || ciphertext ||
// tag) to dst and returns the extended slice.
func sealInto(dst []byte, h *halfConn, typ uint8, plain []byte) []byte {
	copy(h.nonce[:4], h.salt[:])
	binary.BigEndian.PutUint64(h.nonce[4:], h.seq)
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], h.seq)
	dst = append(dst, seq[:]...)
	dst = h.aead.Seal(dst, h.nonce[:], plain, aad(&h.aadBuf, h.seq, typ, recordVersion, len(plain)))
	h.seq++
	return dst
}

// OpenPayload decrypts one protected record payload (explicit nonce ||
// ciphertext || tag) using the explicit nonce as the sequence number. It
// is exported so the attacker package can decrypt captured records given
// recovered keys.
func OpenPayload(aead cipher.AEAD, salt []byte, typ uint8, payload []byte) ([]byte, error) {
	if len(payload) < 8+16 {
		return nil, fmt.Errorf("record: protected payload too short")
	}
	seq := binary.BigEndian.Uint64(payload[:8])
	var nonce [12]byte
	copy(nonce[:4], salt)
	copy(nonce[4:], payload[:8])
	var ad [13]byte
	return aead.Open(nil, nonce[:], payload[8:], aad(&ad, seq, typ, recordVersion, len(payload)-8-16))
}

// NewAEAD builds the AES-128-GCM AEAD for a write key (attacker use).
func NewAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// WriteRecord queues one record, protecting it if the direction is
// armed; a ChangeCipherSpec goes out in plaintext, as ReadRecord reads
// it, so a writer can arm before queueing it. The next Flush (which
// ReadRecord and WriteAlert perform implicitly) hands it to the
// transport, and a transport error surfaces there.
func (rc *Conn) WriteRecord(typ uint8, payload []byte) error {
	start := len(rc.pend)
	buf := append(rc.pend, 0, 0, 0, 0, 0)
	if rc.out.aead != nil && typ != TypeChangeCipherSpec {
		buf = sealInto(buf, &rc.out, typ, payload)
	} else {
		buf = append(buf, payload...)
	}
	buf[start] = typ
	binary.BigEndian.PutUint16(buf[start+1:start+3], recordVersion)
	binary.BigEndian.PutUint16(buf[start+3:start+5], uint16(len(buf)-start-5))
	rc.pend = buf
	if len(rc.pend) >= maxPend {
		return rc.Flush()
	}
	return nil
}

// Flush hands every pending record to the transport in one write. It is
// a no-op when nothing is pending, so callers sprinkle it at read
// boundaries and connection exit without tracking state.
func (rc *Conn) Flush() error {
	if len(rc.pend) == 0 {
		return nil
	}
	buf := rc.pend
	rc.pend = rc.pend[:0]
	_, err := rc.c.Write(buf)
	return err
}

// ReadRecord reads and (if armed) decrypts one record, returned by
// value so the steady-state read path allocates nothing. The Payload
// aliases the connection's reusable read buffer and is valid only until
// the next ReadRecord on the same Conn; callers that retain it must
// copy.
func (rc *Conn) ReadRecord() (Record, error) {
	// The peer cannot answer bytes it has not seen: deliver any pending
	// flight before blocking on the response.
	if err := rc.Flush(); err != nil {
		return Record{}, err
	}
	if _, err := io.ReadFull(rc.c, rc.hdr[:]); err != nil {
		return Record{}, err
	}
	n := int(binary.BigEndian.Uint16(rc.hdr[3:5]))
	if n > MaxPlaintext+1024 {
		return Record{}, WithAlert(AlertRecordOverflow, fmt.Errorf("record: oversized record (%d)", n))
	}
	if cap(rc.rbuf) < n {
		rc.rbuf = make([]byte, n, n+256)
	}
	payload := rc.rbuf[:n]
	if _, err := io.ReadFull(rc.c, payload); err != nil {
		return Record{}, err
	}
	typ := rc.hdr[0]
	if rc.in.aead != nil && typ != TypeChangeCipherSpec {
		h := &rc.in
		copy(h.nonce[:4], h.salt[:])
		if len(payload) < 8+16 {
			return Record{}, WithAlert(AlertBadRecordMAC, errors.New("record: short protected record"))
		}
		copy(h.nonce[4:], payload[:8])
		plainLen := len(payload) - 8 - 16
		// Decrypt in place: dst payload[8:8] aliases the ciphertext start,
		// the exact-overlap case crypto/cipher's GCM supports, so the
		// plaintext needs no second allocation. The additional data takes
		// this direction's own sequence number, not the explicit nonce,
		// so a replayed, reordered or dropped record fails to open, and
		// the version as received, so a changed header fails to open.
		vers := binary.BigEndian.Uint16(rc.hdr[1:3])
		plain, err := h.aead.Open(payload[8:8], h.nonce[:], payload[8:], aad(&h.aadBuf, h.seq, typ, vers, plainLen))
		if err != nil {
			return Record{}, WithAlert(AlertBadRecordMAC, fmt.Errorf("record: decrypt: %w", err))
		}
		h.seq++
		payload = plain
	}
	return Record{Type: typ, Payload: payload}, nil
}

// Alert codes (the subset the engines emit).
const (
	AlertCloseNotify       uint8 = 0
	AlertUnexpectedMessage uint8 = 10
	AlertBadRecordMAC      uint8 = 20
	AlertRecordOverflow    uint8 = 22
	AlertHandshakeFailure  uint8 = 40
	AlertBadCertificate    uint8 = 42
	AlertIllegalParameter  uint8 = 47
	AlertInternalError     uint8 = 80
)

// ProtocolError is a malformed or unexpected input from the peer, with
// the fatal alert a crypto/tls TLS 1.2 endpoint answers it with.
// tlsserver sends that alert; transport failures and the peer's own
// alerts are not ProtocolErrors, so they stay silent.
type ProtocolError struct {
	Alert uint8
	Err   error
}

func (e *ProtocolError) Error() string { return e.Err.Error() }
func (e *ProtocolError) Unwrap() error { return e.Err }

// WithAlert returns err as a ProtocolError answered with alert. It stays
// out of line: inlined at the read path's error returns, it grew their
// frames and with them the stack a server goroutine needs for its first
// read past the size the goroutine starts with.
//
//go:noinline
func WithAlert(alert uint8, err error) error { return &ProtocolError{alert, err} }

// AlertError is a fatal alert received from the peer, typed so callers
// (the scanner's failure taxonomy among them, through the AlertCode
// method) classify it without string matching.
type AlertError struct {
	Code uint8
}

func (e *AlertError) Error() string { return fmt.Sprintf("tls: received alert %d", e.Code) }

// AlertCode returns the alert description byte.
func (e *AlertError) AlertCode() uint8 { return e.Code }

// WriteAlert sends a fatal alert, flushing it (and any pending flight)
// immediately: alert writers are about to tear the connection down.
func (rc *Conn) WriteAlert(code uint8) error {
	err := rc.WriteRecord(TypeAlert, []byte{2, code})
	if ferr := rc.Flush(); err == nil {
		err = ferr
	}
	return err
}
