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
	"fmt"
	"io"
	"net"
	"sync"

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
// protection once each direction's keys are armed.
type Conn struct {
	c       net.Conn
	in, out halfConn
	// hdr is the reusable frame-header scratch for ReadRecord (reads
	// through the net.Conn interface escape their buffer).
	hdr [5]byte
	// wbuf is the reusable outgoing-record scratch. Both in-memory pipe
	// flavors (net.Pipe and simnet's buffered pipe) consume the bytes
	// before Write returns, so the buffer is free again at the next call.
	wbuf []byte
	// rbuf is the reusable incoming-record scratch: a Record's Payload is
	// only valid until the next ReadRecord on the same Conn.
	rbuf []byte
	// coalesce batches outgoing records in pend until Flush — one
	// transport write (one pipe lock + wakeup) per flight instead of one
	// per record. ReadRecord flushes first, so the peer always sees every
	// pending byte before this side blocks on it; the byte stream is
	// identical to per-record writes.
	coalesce bool
	pend     []byte
}

// maxPend bounds the coalescing buffer; a pending flight larger than
// this is flushed eagerly. Handshake flights run ~2 KB, so steady state
// never hits the bound.
const maxPend = 8 << 10

// NewConn wraps c; both directions start in plaintext and writes are
// unbuffered (callers that never read again would otherwise need an
// explicit Flush).
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// Reset rebinds the connection to c and clears both directions' crypto
// state, keeping the frame scratch buffers. The engines pool their
// handshake state across connections; nothing a caller retains aliases
// these buffers (payloads are copied out before the next read). A reset
// connection coalesces each flight: the pooled engines flush before
// every read and at connection exit.
func (rc *Conn) Reset(c net.Conn) {
	rc.c = c
	rc.in = halfConn{}
	rc.out = halfConn{}
	rc.coalesce = true
	rc.pend = rc.pend[:0]
}

// ArmWrite switches the write direction to AES-128-GCM.
func (rc *Conn) ArmWrite(key, salt []byte) error { return rc.out.arm(key, salt) }

// ArmRead switches the read direction to AES-128-GCM.
func (rc *Conn) ArmRead(key, salt []byte) error { return rc.in.arm(key, salt) }

func (h *halfConn) arm(key, salt []byte) error {
	aead, err := trafficAEAD(key)
	if err != nil {
		return err
	}
	h.aead = aead
	copy(h.salt[:], salt)
	h.seq = 0
	return nil
}

// aeadCache amortizes AES-GCM construction across the two endpoints of a
// connection: every traffic key is armed exactly twice — once by the
// writer, once (strictly later, because arming happens before the first
// protected byte is sent) by the reader. The first arm constructs and
// parks the AEAD; the second consumes it, so the cache holds only
// in-flight keys and halves the per-handshake cipher setups. GCM state
// is read-only after construction, so the brief window where both
// half-connections hold the same AEAD is safe under concurrent use.
var aeadCache struct {
	mu sync.Mutex
	m  map[[16]byte]cipher.AEAD
}

// maxAEADCacheEntries bounds keys stranded by half-finished handshakes
// (the peer never armed); the cache is cleared wholesale at the bound.
const maxAEADCacheEntries = 4096

func trafficAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != 16 {
		return NewAEAD(key)
	}
	var k [16]byte
	copy(k[:], key)
	aeadCache.mu.Lock()
	if a, ok := aeadCache.m[k]; ok {
		delete(aeadCache.m, k)
		aeadCache.mu.Unlock()
		// wall/: a bound-clear between the two arms of one key turns a
		// hit into a miss, so the count depends on scheduling.
		telemetry.Global().Counter("wall/record/aead_cache_hit").Inc()
		return a, nil
	}
	aeadCache.mu.Unlock()
	a, err := NewAEAD(key)
	if err != nil {
		return nil, err
	}
	aeadCache.mu.Lock()
	if aeadCache.m == nil || len(aeadCache.m) >= maxAEADCacheEntries {
		aeadCache.m = make(map[[16]byte]cipher.AEAD, 64)
	}
	aeadCache.m[k] = a
	aeadCache.mu.Unlock()
	return a, nil
}

func aad(seq uint64, typ uint8, n int) []byte {
	var b [13]byte
	binary.BigEndian.PutUint64(b[:8], seq)
	b[8] = typ
	binary.BigEndian.PutUint16(b[9:11], recordVersion)
	binary.BigEndian.PutUint16(b[11:13], uint16(n))
	return b[:]
}

// aad is the connection-scratch flavor of the free function above: the
// returned slice aliases the halfConn and is valid until the next call.
func (h *halfConn) aad(seq uint64, typ uint8, n int) []byte {
	binary.BigEndian.PutUint64(h.aadBuf[:8], seq)
	h.aadBuf[8] = typ
	binary.BigEndian.PutUint16(h.aadBuf[9:11], recordVersion)
	binary.BigEndian.PutUint16(h.aadBuf[11:13], uint16(n))
	return h.aadBuf[:]
}

// Seal protects plain for the armed state; the explicit nonce (the
// sequence number) is prepended to the ciphertext, as on the real wire.
func Seal(h *halfConn, typ uint8, plain []byte) []byte {
	return sealInto(make([]byte, 0, 8+len(plain)+16), h, typ, plain)
}

// sealInto appends the protected payload (explicit nonce || ciphertext ||
// tag) to dst and returns the extended slice.
func sealInto(dst []byte, h *halfConn, typ uint8, plain []byte) []byte {
	copy(h.nonce[:4], h.salt[:])
	binary.BigEndian.PutUint64(h.nonce[4:], h.seq)
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], h.seq)
	dst = append(dst, seq[:]...)
	dst = h.aead.Seal(dst, h.nonce[:], plain, h.aad(h.seq, typ, len(plain)))
	h.seq++
	return dst
}

// Open reverses Seal. It is exported (with OpenPayload) so the attacker
// package can decrypt captured records given recovered keys.
func Open(aead cipher.AEAD, salt []byte, typ uint8, payload []byte) ([]byte, error) {
	return OpenPayload(aead, salt, typ, payload)
}

// OpenPayload decrypts one protected record payload (explicit nonce ||
// ciphertext || tag) using the explicit nonce as the sequence number.
func OpenPayload(aead cipher.AEAD, salt []byte, typ uint8, payload []byte) ([]byte, error) {
	if len(payload) < 8+16 {
		return nil, fmt.Errorf("record: protected payload too short")
	}
	seq := binary.BigEndian.Uint64(payload[:8])
	var nonce [12]byte
	copy(nonce[:4], salt)
	copy(nonce[4:], payload[:8])
	plainLen := len(payload) - 8 - 16
	return aead.Open(nil, nonce[:], payload[8:], aad(seq, typ, plainLen))
}

// NewAEAD builds the AES-128-GCM AEAD for a write key (attacker use).
func NewAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// WriteRecord writes one record, protecting it if the direction is armed.
// The frame is assembled in the connection's reusable scratch buffer so
// steady-state writes allocate nothing. On a coalescing (Reset) Conn
// the frame is queued in pend instead and handed to the transport by the
// next Flush (which ReadRecord and WriteAlert perform implicitly); a
// transport error then surfaces at that flush.
func (rc *Conn) WriteRecord(typ uint8, payload []byte) error {
	if rc.coalesce {
		start := len(rc.pend)
		buf := append(rc.pend, 0, 0, 0, 0, 0)
		if rc.out.aead != nil {
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
	if need := 5 + len(payload) + 8 + 16; cap(rc.wbuf) < need {
		rc.wbuf = make([]byte, 0, need+256)
	}
	buf := rc.wbuf[:5]
	if rc.out.aead != nil {
		buf = sealInto(buf, &rc.out, typ, payload)
	} else {
		buf = append(buf, payload...)
	}
	buf[0] = typ
	binary.BigEndian.PutUint16(buf[1:3], recordVersion)
	binary.BigEndian.PutUint16(buf[3:5], uint16(len(buf)-5))
	rc.wbuf = buf[:0]
	_, err := rc.c.Write(buf)
	return err
}

// Flush hands every pending coalesced record to the transport in one
// write. It is a no-op when nothing is pending (or the Conn does not
// coalesce), so callers sprinkle it at read boundaries and connection
// exit without tracking state.
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
		return Record{}, fmt.Errorf("record: oversized record (%d)", n)
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
			return Record{}, fmt.Errorf("record: short protected record")
		}
		copy(h.nonce[4:], payload[:8])
		seq := binary.BigEndian.Uint64(payload[:8])
		plainLen := len(payload) - 8 - 16
		// Decrypt in place: dst payload[8:8] aliases the ciphertext start,
		// the exact-overlap case crypto/cipher's GCM supports, so the
		// plaintext needs no second allocation.
		plain, err := h.aead.Open(payload[8:8], h.nonce[:], payload[8:], h.aad(seq, typ, plainLen))
		if err != nil {
			return Record{}, fmt.Errorf("record: decrypt: %w", err)
		}
		payload = plain
	}
	return Record{Type: typ, Payload: payload}, nil
}

// Alert codes (the tiny subset the engines emit).
const (
	AlertCloseNotify      uint8 = 0
	AlertHandshakeFailure uint8 = 40
	AlertBadCertificate   uint8 = 42
)

// WriteAlert sends a fatal alert, flushing it (and any pending flight)
// immediately: alert writers are about to tear the connection down.
func (rc *Conn) WriteAlert(code uint8) error {
	err := rc.WriteRecord(TypeAlert, []byte{2, code})
	if ferr := rc.Flush(); err == nil {
		err = ferr
	}
	return err
}
