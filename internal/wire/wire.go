// Package wire encodes and decodes the TLS 1.2 handshake messages and
// extensions this repository's engines speak: ClientHello, ServerHello,
// Certificate, ServerKeyExchange, ServerHelloDone, ClientKeyExchange,
// Finished, NewSessionTicket, plus the SNI and session-ticket extensions.
package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// Cipher suites (TLS registry values; the study offers restricted subsets
// to isolate each key-exchange family, exactly like the paper's zgrab).
const (
	SuiteECDHE uint16 = 0xC02B // ECDHE-ECDSA-AES128-GCM-SHA256
	SuiteDHE   uint16 = 0x009E // DHE-AES128-GCM-SHA256
	SuiteRSA   uint16 = 0x009C // RSA-AES128-GCM-SHA256
)

// SuiteName renders a cipher-suite value for humans.
func SuiteName(s uint16) string {
	switch s {
	case SuiteECDHE:
		return "ECDHE-ECDSA-AES128-GCM-SHA256"
	case SuiteDHE:
		return "DHE-AES128-GCM-SHA256"
	case SuiteRSA:
		return "RSA-AES128-GCM-SHA256"
	case 0xC02F:
		return "ECDHE-RSA-AES128-GCM-SHA256"
	default:
		return fmt.Sprintf("0x%04X", s)
	}
}

// Kex identifies the key-exchange family of a negotiated suite.
type Kex uint8

const (
	KexNone Kex = iota
	KexDHE
	KexECDHE
	KexRSA
)

func (k Kex) String() string {
	switch k {
	case KexDHE:
		return "DHE"
	case KexECDHE:
		return "ECDHE"
	case KexRSA:
		return "RSA"
	}
	return "none"
}

// SuiteKex maps a suite to its KEX family.
func SuiteKex(s uint16) Kex {
	switch s {
	case SuiteECDHE:
		return KexECDHE
	case SuiteDHE:
		return KexDHE
	case SuiteRSA:
		return KexRSA
	}
	return KexNone
}

// Handshake message types.
const (
	TypeClientHello       uint8 = 1
	TypeServerHello       uint8 = 2
	TypeNewSessionTicket  uint8 = 4
	TypeCertificate       uint8 = 11
	TypeServerKeyExchange uint8 = 12
	TypeServerHelloDone   uint8 = 14
	TypeClientKeyExchange uint8 = 16
	TypeFinished          uint8 = 20
)

// Extension numbers.
const (
	ExtSNI           uint16 = 0
	ExtSessionTicket uint16 = 35
)

// VersionTLS12 is the only protocol version the engines negotiate.
const VersionTLS12 uint16 = 0x0303

// Msg is one handshake message: type byte plus body (header excluded).
type Msg struct {
	Type uint8
	Body []byte
}

// Marshal frames the message with its 4-byte handshake header.
func (m *Msg) Marshal() []byte {
	out := make([]byte, 4+len(m.Body))
	out[0] = m.Type
	putUint24(out[1:4], len(m.Body))
	copy(out[4:], m.Body)
	return out
}

// AppendTo appends the framed message (header plus body) to dst. The
// engines marshal every handshake message into per-connection scratch
// through the Append flavors; the Marshal forms remain for the attacker
// and tests, where a fresh slice per message is the clearer API.
func (m *Msg) AppendTo(dst []byte) []byte {
	dst = append(dst, m.Type, byte(len(m.Body)>>16), byte(len(m.Body)>>8), byte(len(m.Body)))
	return append(dst, m.Body...)
}

// ParseMsgs splits a concatenation of handshake messages.
func ParseMsgs(b []byte) ([]Msg, error) {
	var out []Msg
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("wire: short handshake header")
		}
		n := uint24(b[1:4])
		if len(b) < 4+n {
			return nil, fmt.Errorf("wire: truncated handshake message")
		}
		out = append(out, Msg{Type: b[0], Body: b[4 : 4+n]})
		b = b[4+n:]
	}
	return out, nil
}

func putUint24(b []byte, v int) {
	b[0], b[1], b[2] = byte(v>>16), byte(v>>8), byte(v)
}
func uint24(b []byte) int { return int(b[0])<<16 | int(b[1])<<8 | int(b[2]) }

// ---- ClientHello ----

type ClientHello struct {
	Random      [32]byte
	SessionID   []byte
	Suites      []uint16
	ServerName  string
	OfferTicket bool   // include an (empty or filled) session_ticket ext
	Ticket      []byte // non-empty: resume via this ticket
}

func (h *ClientHello) Marshal() *Msg {
	b := newBuilder()
	b.u16(VersionTLS12)
	b.raw(h.Random[:])
	b.vec8(h.SessionID)
	b.u16(uint16(2 * len(h.Suites)))
	for _, s := range h.Suites {
		b.u16(s)
	}
	b.raw([]byte{1, 0}) // compression: null only
	ext := newBuilder()
	if h.ServerName != "" {
		sni := newBuilder()
		inner := newBuilder()
		inner.byte(0)
		inner.vec16([]byte(h.ServerName))
		sni.vec16(inner.bytes())
		ext.u16(ExtSNI)
		ext.vec16(sni.bytes())
	}
	if h.OfferTicket || len(h.Ticket) > 0 {
		ext.u16(ExtSessionTicket)
		ext.vec16(h.Ticket)
	}
	b.vec16(ext.bytes())
	return &Msg{Type: TypeClientHello, Body: b.bytes()}
}

// AppendTo appends the framed ClientHello, byte-identical to
// Marshal().Marshal(), without the intermediate builders.
func (h *ClientHello) AppendTo(dst []byte) []byte {
	dst, msg := beginMsg(dst, TypeClientHello)
	dst = binary.BigEndian.AppendUint16(dst, VersionTLS12)
	dst = append(dst, h.Random[:]...)
	dst = append(dst, byte(len(h.SessionID)))
	dst = append(dst, h.SessionID...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(2*len(h.Suites)))
	for _, s := range h.Suites {
		dst = binary.BigEndian.AppendUint16(dst, s)
	}
	dst = append(dst, 1, 0) // compression: null only
	dst, exts := beginVec16(dst)
	if h.ServerName != "" {
		var ext, list, name int
		dst = binary.BigEndian.AppendUint16(dst, ExtSNI)
		dst, ext = beginVec16(dst)
		dst, list = beginVec16(dst)
		dst = append(dst, 0) // name_type: host_name
		dst, name = beginVec16(dst)
		dst = append(dst, h.ServerName...)
		dst = endVec16(dst, name)
		dst = endVec16(dst, list)
		dst = endVec16(dst, ext)
	}
	if h.OfferTicket || len(h.Ticket) > 0 {
		dst = binary.BigEndian.AppendUint16(dst, ExtSessionTicket)
		dst = appendVec16(dst, h.Ticket)
	}
	dst = endVec16(dst, exts)
	return endMsg(dst, msg)
}

// ParseClientHelloInto parses into a caller-owned ClientHello, reusing
// its Suites backing array. Terminators parse one ClientHello per
// connection; with a pooled destination the parse allocates nothing but
// the SNI string.
func ParseClientHelloInto(h *ClientHello, body []byte) error {
	p := &parser{b: body}
	*h = ClientHello{Suites: h.Suites[:0]}
	if p.u16() != VersionTLS12 {
		return fmt.Errorf("wire: bad client version")
	}
	copy(h.Random[:], p.fixed(32))
	h.SessionID = p.vec8()
	ns := int(p.u16()) / 2
	for i := 0; i < ns && p.err == nil; i++ {
		h.Suites = append(h.Suites, p.u16())
	}
	p.vec8() // compression
	// The extensions block ends the message: narrowing p to it makes a
	// malformed extension fail the whole parse.
	p.b = p.vec16()
	for len(p.b) > 0 {
		typ := p.u16()
		data := p.vec16()
		switch typ {
		case ExtSNI:
			// server_name_list, whose first entry is the host_name.
			sp := &parser{b: data}
			sp.b = sp.vec16()
			sp.fixed(1) // name_type
			name := sp.vec16()
			if sp.err != nil {
				return sp.err
			}
			h.ServerName = internName(name)
		case ExtSessionTicket:
			h.OfferTicket = true
			h.Ticket = data
		}
	}
	return p.err
}

// ---- ServerHello ----

type ServerHello struct {
	Random    [32]byte
	SessionID []byte
	Suite     uint16
	TicketAck bool // server will send NewSessionTicket
}

func (h *ServerHello) Marshal() *Msg {
	b := newBuilder()
	b.u16(VersionTLS12)
	b.raw(h.Random[:])
	b.vec8(h.SessionID)
	b.u16(h.Suite)
	b.byte(0) // compression null
	ext := newBuilder()
	if h.TicketAck {
		ext.u16(ExtSessionTicket)
		ext.vec16(nil)
	}
	b.vec16(ext.bytes())
	return &Msg{Type: TypeServerHello, Body: b.bytes()}
}

// AppendTo appends the framed ServerHello, byte-identical to
// Marshal().Marshal().
func (h *ServerHello) AppendTo(dst []byte) []byte {
	dst, msg := beginMsg(dst, TypeServerHello)
	dst = binary.BigEndian.AppendUint16(dst, VersionTLS12)
	dst = append(dst, h.Random[:]...)
	dst = append(dst, byte(len(h.SessionID)))
	dst = append(dst, h.SessionID...)
	dst = binary.BigEndian.AppendUint16(dst, h.Suite)
	dst = append(dst, 0) // compression null
	dst, exts := beginVec16(dst)
	if h.TicketAck {
		dst = binary.BigEndian.AppendUint16(dst, ExtSessionTicket)
		dst = append(dst, 0, 0)
	}
	dst = endVec16(dst, exts)
	return endMsg(dst, msg)
}

// ParseServerHelloInto parses into a caller-owned ServerHello; with a
// pooled destination the parse is allocation-free (SessionID aliases
// body).
func ParseServerHelloInto(h *ServerHello, body []byte) error {
	p := &parser{b: body}
	*h = ServerHello{}
	if p.u16() != VersionTLS12 {
		return fmt.Errorf("wire: bad server version")
	}
	copy(h.Random[:], p.fixed(32))
	h.SessionID = p.vec8()
	h.Suite = p.u16()
	p.fixed(1) // compression
	// The extensions block ends the message, as in ParseClientHelloInto.
	p.b = p.vec16()
	for len(p.b) > 0 {
		typ := p.u16()
		p.vec16()
		if typ == ExtSessionTicket {
			h.TicketAck = true
		}
	}
	return p.err
}

// ---- Certificate ----

// MarshalCertificate returns the Certificate message carrying chain
// (DER, leaf first).
func MarshalCertificate(chain [][]byte) *Msg {
	b := AppendCertificate(nil, chain)
	return &Msg{Type: TypeCertificate, Body: b[4:]}
}

// AppendCertificate appends the framed Certificate message carrying
// chain (DER, leaf first) to dst.
func AppendCertificate(dst []byte, chain [][]byte) []byte {
	dst, msg := beginMsg(dst, TypeCertificate)
	list := len(dst)
	dst = append(dst, 0, 0, 0)
	for _, c := range chain {
		dst = append(dst, byte(len(c)>>16), byte(len(c)>>8), byte(len(c)))
		dst = append(dst, c...)
	}
	putUint24(dst[list:], len(dst)-list-3)
	return endMsg(dst, msg)
}

// ParseCertificateInto parses the chain into dst's backing array (grown as
// needed); certificates alias body. With a pooled dst of sufficient
// capacity the parse is allocation-free. Pass dst[:0] to reuse.
func ParseCertificateInto(dst [][]byte, body []byte) ([][]byte, error) {
	p := &parser{b: body}
	all := p.vec24()
	if p.err != nil {
		return nil, p.err
	}
	chain := dst[:0]
	cp := &parser{b: all}
	for len(cp.b) > 0 && cp.err == nil {
		chain = append(chain, cp.vec24())
	}
	if cp.err != nil {
		return nil, cp.err
	}
	return chain, nil
}

// internName deduplicates SNI host names: a campaign parses the same few
// thousand domain names hundreds of times each, and the string conversion
// was the ClientHello parse's only remaining per-call allocation.
// Interning is semantics-free (identical bytes in, identical string out);
// the map is cleared wholesale at the bound to stay finite across many
// populations in one process.
var nameIntern struct {
	mu sync.RWMutex
	m  map[string]string
}

const maxInternedNames = 16384

func internName(b []byte) string {
	nameIntern.mu.RLock()
	s, ok := nameIntern.m[string(b)]
	nameIntern.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	nameIntern.mu.Lock()
	if nameIntern.m == nil || len(nameIntern.m) >= maxInternedNames {
		nameIntern.m = make(map[string]string, 1024)
	}
	nameIntern.m[s] = s
	nameIntern.mu.Unlock()
	return s
}

// ---- ServerKeyExchange ----

// SKE carries the server's ephemeral value. For DHE: P, G, Public are the
// group parameters and value. For ECDHE: Public is the uncompressed P-256
// point (P and G are nil). Sig is an ECDSA/RSA signature over
// client_random || server_random || params.
type SKE struct {
	Kex    Kex
	P, G   []byte
	Public []byte
	Sig    []byte
}

func (s *SKE) appendParams(dst []byte) []byte {
	if s.Kex == KexDHE {
		dst = appendVec16(dst, s.P)
		dst = appendVec16(dst, s.G)
		return appendVec16(dst, s.Public)
	}
	dst = append(dst, 3)                         // named_curve
	dst = binary.BigEndian.AppendUint16(dst, 23) // secp256r1
	dst = append(dst, byte(len(s.Public)))
	return append(dst, s.Public...)
}

// AppendSignedParams appends the blob the server signs (and the client
// verifies) to dst.
func (s *SKE) AppendSignedParams(dst, clientRandom, serverRandom []byte) []byte {
	dst = append(dst, clientRandom...)
	dst = append(dst, serverRandom...)
	return s.appendParams(dst)
}

func (s *SKE) Marshal() *Msg {
	b := newBuilder()
	b.raw(s.appendParams(nil))
	b.u16(0x0403) // ecdsa_secp256r1_sha256 (informational)
	b.vec16(s.Sig)
	return &Msg{Type: TypeServerKeyExchange, Body: b.bytes()}
}

// AppendTo appends the framed ServerKeyExchange, byte-identical to
// Marshal().Marshal().
func (s *SKE) AppendTo(dst []byte) []byte {
	dst, msg := beginMsg(dst, TypeServerKeyExchange)
	dst = s.appendParams(dst)
	dst = binary.BigEndian.AppendUint16(dst, 0x0403)
	dst = appendVec16(dst, s.Sig)
	return endMsg(dst, msg)
}

// ParseSKEInto parses into a caller-owned SKE; every field aliases body,
// so with a pooled destination the parse is allocation-free.
func ParseSKEInto(s *SKE, kex Kex, body []byte) error {
	p := &parser{b: body}
	*s = SKE{Kex: kex}
	if kex == KexDHE {
		s.P = p.vec16()
		s.G = p.vec16()
		s.Public = p.vec16()
	} else {
		p.fixed(3)
		s.Public = p.vec8()
	}
	p.u16() // sig alg
	s.Sig = p.vec16()
	return p.err
}

// ---- ClientKeyExchange ----

func MarshalCKE(kex Kex, public []byte) *Msg {
	b := newBuilder()
	if kex == KexDHE {
		b.vec16(public)
	} else {
		b.vec8(public)
	}
	return &Msg{Type: TypeClientKeyExchange, Body: b.bytes()}
}

// AppendCKE appends the framed ClientKeyExchange to dst.
func AppendCKE(dst []byte, kex Kex, public []byte) []byte {
	dst, msg := beginMsg(dst, TypeClientKeyExchange)
	if kex == KexDHE {
		dst = appendVec16(dst, public)
	} else {
		dst = append(dst, byte(len(public)))
		dst = append(dst, public...)
	}
	return endMsg(dst, msg)
}

func ParseCKE(kex Kex, body []byte) ([]byte, error) {
	p := &parser{b: body}
	var pub []byte
	if kex == KexDHE {
		pub = p.vec16()
	} else {
		pub = p.vec8()
	}
	if p.err != nil {
		return nil, p.err
	}
	return pub, nil
}

// ---- NewSessionTicket ----

type NewSessionTicket struct {
	LifetimeHint time.Duration
	Ticket       []byte
}

func (t *NewSessionTicket) Marshal() *Msg {
	b := newBuilder()
	b.u32(uint32(t.LifetimeHint / time.Second))
	b.vec16(t.Ticket)
	return &Msg{Type: TypeNewSessionTicket, Body: b.bytes()}
}

// AppendTo appends the framed NewSessionTicket, byte-identical to
// Marshal().Marshal().
func (t *NewSessionTicket) AppendTo(dst []byte) []byte {
	dst, msg := beginMsg(dst, TypeNewSessionTicket)
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.LifetimeHint/time.Second))
	dst = appendVec16(dst, t.Ticket)
	return endMsg(dst, msg)
}

// AppendNSTPrefix appends the fixed NewSessionTicket message prefix —
// handshake header, lifetime hint, ticket length — for a ticket of known
// length. Appending exactly ticketLen ticket bytes afterwards yields the
// same bytes as NewSessionTicket.AppendTo; the server seals the ticket
// directly behind it.
func AppendNSTPrefix(dst []byte, hint time.Duration, ticketLen int) []byte {
	n := 4 + 2 + ticketLen
	dst = append(dst, TypeNewSessionTicket, byte(n>>16), byte(n>>8), byte(n))
	dst = binary.BigEndian.AppendUint32(dst, uint32(hint/time.Second))
	return binary.BigEndian.AppendUint16(dst, uint16(ticketLen))
}

func ParseNewSessionTicket(body []byte) (*NewSessionTicket, error) {
	p := &parser{b: body}
	t := &NewSessionTicket{}
	t.LifetimeHint = time.Duration(p.u32()) * time.Second
	t.Ticket = p.vec16()
	if p.err != nil {
		return nil, p.err
	}
	return t, nil
}

// ---- builder / parser ----

// beginMsg reserves a 4-byte handshake header in dst; endMsg backfills
// the length. Between the two, start indexes the header's first byte.
func beginMsg(dst []byte, typ uint8) ([]byte, int) {
	return append(dst, typ, 0, 0, 0), len(dst)
}

func endMsg(dst []byte, start int) []byte {
	putUint24(dst[start+1:start+4], len(dst)-start-4)
	return dst
}

// beginVec16 reserves a 16-bit length prefix; endVec16 backfills it.
func beginVec16(dst []byte) ([]byte, int) { return append(dst, 0, 0), len(dst) }

func endVec16(dst []byte, start int) []byte {
	binary.BigEndian.PutUint16(dst[start:start+2], uint16(len(dst)-start-2))
	return dst
}

func appendVec16(dst, v []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v)))
	return append(dst, v...)
}

type builder struct{ b []byte }

func newBuilder() *builder       { return &builder{} }
func (w *builder) bytes() []byte { return w.b }
func (w *builder) byte(v byte)   { w.b = append(w.b, v) }
func (w *builder) raw(v []byte)  { w.b = append(w.b, v...) }
func (w *builder) u16(v uint16)  { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *builder) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *builder) vec8(v []byte) {
	w.byte(byte(len(v)))
	w.raw(v)
}
func (w *builder) vec16(v []byte) {
	w.u16(uint16(len(v)))
	w.raw(v)
}

type parser struct {
	b   []byte
	err error
}

// raw consumes an n-byte vector. On a truncated message it fails the
// parse and returns nil, so a length prefix claiming more than the
// message holds allocates nothing.
func (p *parser) raw(n int) []byte {
	if p.err != nil || len(p.b) < n {
		p.fail()
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// zeros backs the fixed-width fields of a failed parse.
var zeros [32]byte

// fixed consumes a fixed-width field of n <= len(zeros) bytes. On a
// truncated message it fails the parse and returns n shared zero bytes,
// which callers decode or copy but never write or retain.
func (p *parser) fixed(n int) []byte {
	if b := p.raw(n); b != nil {
		return b
	}
	return zeros[:n]
}
func (p *parser) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("wire: truncated message")
	}
	p.b = nil
}
func (p *parser) u16() uint16   { return binary.BigEndian.Uint16(p.fixed(2)) }
func (p *parser) u32() uint32   { return binary.BigEndian.Uint32(p.fixed(4)) }
func (p *parser) vec8() []byte  { return p.raw(int(p.fixed(1)[0])) }
func (p *parser) vec16() []byte { return p.raw(int(p.u16())) }
func (p *parser) vec24() []byte { return p.raw(uint24(p.fixed(3))) }
