// Package tlsclient is the zgrab-analog scanning client: restricted
// cipher offers, capture of everything the study records (server random,
// session ID, certificate chain, KEX value, ticket, STEK ID, lifetime
// hint, master secret), and resumption by session ID or ticket.
package tlsclient

import (
	"crypto/ecdh"
	crand "crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/prf"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/wire"
)

// AlertError is a fatal TLS alert received from the server, typed so the
// scanner's failure taxonomy can classify it (via the AlertCode method)
// without string matching.
type AlertError struct {
	Code uint8
}

// Error keeps the historical message format.
func (e *AlertError) Error() string { return fmt.Sprintf("tls: server alert %d", e.Code) }

// AlertCode returns the alert description byte.
func (e *AlertError) AlertCode() uint8 { return e.Code }

// Session is the client-side resumable state from a completed handshake.
// A Session owns its ID and Ticket bytes outright (they are copied out of
// the pooled handshake buffer into the inline backing arrays below), and
// is always shared by pointer — copying one by value would detach the
// slices from the copy's arrays.
type Session struct {
	ID     []byte
	Ticket []byte
	Suite  uint16
	Master [48]byte

	// CreatedAt is the connection's virtual time when the handshake
	// completed. Client session stores (the traffic plane's per-user
	// browser caches) age sessions against it; the scanner ignores it.
	CreatedAt time.Time

	idbuf  [32]byte
	tktbuf [160]byte
}

func (s *Session) setID(b []byte)     { s.ID = copyInto(s.idbuf[:], b) }
func (s *Session) setTicket(b []byte) { s.Ticket = copyInto(s.tktbuf[:], b) }

// copyInto copies src into dst's fixed storage, falling back to the heap
// when src is oversized; nil stays nil.
func copyInto(dst, src []byte) []byte {
	if src == nil {
		return nil
	}
	if len(src) <= len(dst) {
		return dst[:copy(dst, src)]
	}
	return append([]byte(nil), src...)
}

// Config drives one scan connection.
type Config struct {
	ServerName string
	Suites     []uint16 // nil = [ECDHE, DHE]
	Clock      simclock.Clock
	Roots      *pki.RootStore // nil = record chain but skip trust check

	OfferTicket bool

	// Resume, when set, attempts resumption: by ticket when
	// ResumeViaTicket, else by session ID.
	Resume          *Session
	ResumeViaTicket bool

	// AppData, when set, is sent after the handshake and one response
	// record is read (so captures contain traffic in both directions).
	AppData []byte

	Rand io.Reader // nil = crypto/rand

	// ReuseKex lets the client reuse one fixed key-exchange keypair
	// across connections (the scanner sets it). No recorded measurement
	// depends on the client's KEX value, so this is observationally
	// inert, and it removes a P-256 keygen or a g^x modexp per scan.
	ReuseKex bool

	// KexOnly disconnects right after capturing the ServerKeyExchange,
	// the way survey scanners (zgrab's key-exchange grabs) do: everything
	// a key-exchange scan records — chain, trust, suite, server random,
	// KEX value — is on the wire before the client's second flight, so
	// skipping the key agreement and Finished exchange observes exactly
	// what a completed handshake would. No session results, and the SKE
	// signature is not checked inline (the probe never acts on the
	// channel).
	KexOnly bool
}

// Capture is everything the scanner records about one connection. Every
// retained byte field except Chain is backed by the Capture's own inline
// arrays (heap fallback for oversized values): the handshake buffer they
// were parsed from is pooled and reused by the next connection on the
// same worker. Captures are reused via HandshakeInto and must not be
// copied by value while their slices are live (the slices would keep
// pointing at the source Capture's arrays).
type Capture struct {
	Trusted     bool
	CipherSuite uint16
	KexAlg      wire.Kex

	ServerRandom   []byte
	ServerKEXValue []byte
	SessionID      []byte

	// Inline backing storage; see the struct comment.
	serverRandom [32]byte
	kexValue     [80]byte
	sessionID    [32]byte
	tktbuf       [192]byte
	appResp      [96]byte

	TicketIssued bool
	Ticket       []byte // raw issued ticket
	STEKID       []byte // best-effort single-ticket key ID (aliases Ticket)
	LifetimeHint time.Duration

	Resumed          bool
	ResumedViaTicket bool

	// Chain aliases the pooled handshake buffer and is only valid until
	// the next handshake on the same worker; nothing in the study retains
	// it (trust is evaluated inline into Trusted).
	Chain   [][]byte
	Session *Session
	AppResp []byte
}

func (c *Config) now() time.Time {
	if c.Clock != nil {
		return c.Clock.Now()
	}
	return time.Now()
}

func (c *Config) rand() io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	return crand.Reader
}

// hsConn is one connection's handshake state. Instances are pooled: the
// record layer, transcript hash, PRF expander, buf, and the fixed scratch
// arrays all reset cheaply between connections. Everything retained past
// the handshake (session IDs, tickets, KEX values, master secrets) is
// copied into Capture- or Session-owned storage before buf is reused;
// only Capture.Chain still aliases buf, under the validity contract
// documented on that field.
type hsConn struct {
	rc   record.Conn
	buf  []byte
	off  int       // consumed prefix of buf
	hash hash.Hash // running transcript digest
	ex   prf.Expander
	mbuf []byte // outgoing handshake-message marshal scratch
	sp   []byte // SKE signed-params scratch
	// Per-connection hello structs, reused across pooled connections.
	// Nothing that outlives the handshake aliases them: the Capture
	// copies the server random it retains, and its other retained fields
	// alias buf (fresh per connection), never these structs.
	ch wire.ClientHello
	sh wire.ServerHello
	// Parse scratch reused across pooled connections: the certificate
	// chain's top-level slice (elements alias buf, same validity contract
	// as Capture.Chain) and the ServerKeyExchange (all fields alias buf).
	chain [][]byte
	skeM  wire.SKE
	// Fixed-size derivation scratch. The PRF appends whole 32-byte
	// blocks before truncating, so capacities round up to a block.
	seed   [64]byte // client_random || server_random (either order)
	kb     [64]byte // key block (40 bytes used)
	master [64]byte // master secret (48 bytes used; copied into Session)
	fin    [32]byte // Finished verify_data (12 bytes used)
	pre    [32]byte // transcript digest
}

var hsPool = sync.Pool{New: func() any { return &hsConn{hash: sha256.New()} }}

func getHsConn(conn net.Conn) *hsConn {
	h := hsPool.Get().(*hsConn)
	h.rc.Reset(conn)
	h.hash.Reset()
	h.off = 0
	if cap(h.buf) >= 2048 {
		// Reuse the previous connection's buffer: every retained parse
		// result is copied into Capture/Session storage before the hsConn
		// returns to the pool, so nothing aliases it across connections.
		h.buf = h.buf[:0]
	} else {
		// Sized for a full server flight so it grows at most once.
		h.buf = make([]byte, 0, 2048)
	}
	return h
}

// transcript returns the hash of the handshake messages so far, in the
// connection's digest scratch (valid until the next transcript call).
func (h *hsConn) transcript() []byte {
	return h.hash.Sum(h.pre[:0])
}

func (h *hsConn) writeMsg(m *wire.Msg) error {
	h.mbuf = m.AppendTo(h.mbuf[:0])
	return h.writeFramed(h.mbuf)
}

// writeFramed sends an already-framed handshake message.
func (h *hsConn) writeFramed(frame []byte) error {
	h.hash.Write(frame)
	return h.rc.WriteRecord(record.TypeHandshake, frame)
}

func (h *hsConn) readMsg() (wire.Msg, bool, error) {
	for {
		if b := h.buf[h.off:]; len(b) >= 4 {
			n := int(b[1])<<16 | int(b[2])<<8 | int(b[3])
			if len(b) >= 4+n {
				raw := b[:4+n]
				h.off += 4 + n
				h.hash.Write(raw)
				return wire.Msg{Type: raw[0], Body: raw[4:]}, false, nil
			}
		}
		rec, err := h.rc.ReadRecord()
		if err != nil {
			return wire.Msg{}, false, err
		}
		switch rec.Type {
		case record.TypeHandshake:
			h.buf = append(h.buf, rec.Payload...)
		case record.TypeChangeCipherSpec:
			return wire.Msg{}, true, nil
		case record.TypeAlert:
			if len(rec.Payload) == 2 {
				return wire.Msg{}, false, &AlertError{Code: rec.Payload[1]}
			}
			return wire.Msg{}, false, errors.New("tls: malformed server alert")
		default:
			return wire.Msg{}, false, fmt.Errorf("tls: unexpected record type %d", rec.Type)
		}
	}
}

// defaultSuites is the offer when Config.Suites is nil.
var defaultSuites = []uint16{wire.SuiteECDHE, wire.SuiteDHE}

// Handshake performs one connection against conn. The returned Capture is
// non-nil whenever a ServerHello was seen, even on later failure.
func Handshake(conn net.Conn, cfg *Config) (*Capture, error) {
	cap := &Capture{}
	err := HandshakeInto(cap, conn, cfg)
	return cap, err
}

// HandshakeInto is Handshake recording into a caller-owned Capture (reset
// on entry), so the scanner's per-worker arenas reuse one Capture instead
// of allocating one per connection.
func HandshakeInto(cap *Capture, conn net.Conn, cfg *Config) error {
	*cap = Capture{}
	hc := getHsConn(conn)
	defer hsPool.Put(hc)
	// Flush any record bytes still coalesced when a path returns without a
	// subsequent read (the resumed handshake's final Finished). Runs before
	// the pool Put (LIFO). Paths whose callers must see the write error
	// flush explicitly first, making this a no-op backstop.
	defer hc.rc.Flush()

	suites := cfg.Suites
	if suites == nil {
		suites = defaultSuites
	}
	ch := &hc.ch
	*ch = wire.ClientHello{Suites: suites, ServerName: cfg.ServerName, OfferTicket: cfg.OfferTicket}
	if _, err := io.ReadFull(cfg.rand(), ch.Random[:]); err != nil {
		return err
	}
	if cfg.Resume != nil {
		if cfg.ResumeViaTicket {
			ch.Ticket = cfg.Resume.Ticket
			ch.OfferTicket = true
		} else {
			ch.SessionID = cfg.Resume.ID
		}
	}
	hc.mbuf = ch.AppendTo(hc.mbuf[:0])
	if err := hc.writeFramed(hc.mbuf); err != nil {
		return err
	}

	msg, _, err := hc.readMsg()
	if err != nil {
		return err
	}
	if msg.Type != wire.TypeServerHello {
		return fmt.Errorf("tls: expected ServerHello, got %d", msg.Type)
	}
	sh := &hc.sh
	if err := wire.ParseServerHelloInto(sh, msg.Body); err != nil {
		return err
	}
	cap.CipherSuite = sh.Suite
	cap.KexAlg = wire.SuiteKex(sh.Suite)
	cap.serverRandom = sh.Random
	cap.ServerRandom = cap.serverRandom[:]
	cap.SessionID = copyInto(cap.sessionID[:], sh.SessionID)

	// What follows decides full versus abbreviated handshake: a
	// Certificate message means full; NewSessionTicket or CCS means the
	// server accepted resumption.
	msg, ccs, err := hc.readMsg()
	if err != nil {
		return err
	}
	if ccs || msg.Type == wire.TypeNewSessionTicket {
		if cfg.Resume == nil {
			return errors.New("tls: server resumed without an offer")
		}
		return finishResumed(hc, cfg, cap, ch, sh, msg, ccs)
	}
	return finishFull(hc, cfg, cap, ch, sh, msg)
}

func finishFull(hc *hsConn, cfg *Config, cap *Capture, ch *wire.ClientHello, sh *wire.ServerHello, msg wire.Msg) error {
	if msg.Type != wire.TypeCertificate {
		return fmt.Errorf("tls: expected Certificate, got %d", msg.Type)
	}
	chain, err := wire.ParseCertificateInto(hc.chain[:0], msg.Body)
	if err != nil {
		return err
	}
	hc.chain = chain
	cap.Chain = chain
	if cfg.Roots != nil {
		cap.Trusted = cfg.Roots.Verify(chain, cfg.ServerName, cfg.now())
	}

	kex := wire.SuiteKex(sh.Suite)
	var premaster, clientPub []byte
	switch kex {
	case wire.KexECDHE, wire.KexDHE:
		msg, _, err = hc.readMsg()
		if err != nil {
			return err
		}
		if msg.Type != wire.TypeServerKeyExchange {
			return fmt.Errorf("tls: expected ServerKeyExchange, got %d", msg.Type)
		}
		ske := &hc.skeM
		if err := wire.ParseSKEInto(ske, kex, msg.Body); err != nil {
			return err
		}
		cap.ServerKEXValue = copyInto(cap.kexValue[:], ske.Public)
		if cfg.KexOnly {
			return nil
		}
		if err := verifySKE(hc, chain, ske, ch.Random[:], sh.Random[:]); err != nil {
			return err
		}
		// With the fixed client key, the shared secret is a pure function
		// of the server's KEX value, so Reuse-policy servers (which repeat
		// theirs) cost one key agreement total instead of one per probe.
		// Only previously-validated server values get cached, so the
		// cache-hit path's skipped range/point checks cannot admit a value
		// the slow path would have rejected. The fixed-key path draws no
		// randomness, so cache hits never shift the DRBG stream.
		fixed := cfg.ReuseKex
		if kex == wire.KexECDHE {
			if fixed {
				premaster, clientPub = clientPremasterECDHE(ske.Public)
				if premaster == nil {
					// Fresh-policy servers publish their scalar at key
					// generation, before the SKE we just parsed was sent:
					// deriving the secret from both scalars is a base-point
					// multiplication, ~3x cheaper than x*Ys. Only
					// self-generated points ever reach the scalar map, so the
					// skipped on-curve check cannot admit a bad value.
					if pm := keyex.ClientPremasterFromScalar(ske.Public); pm != nil {
						premaster, clientPub = pm, fixedECDHEPub()
					}
				}
			}
			if premaster == nil {
				var priv *ecdh.PrivateKey
				if fixed {
					priv = fixedECDHEKey()
				} else {
					priv, err = ecdh.P256().GenerateKey(cfg.rand())
					if err != nil {
						return err
					}
				}
				peer, err := ecdh.P256().NewPublicKey(ske.Public)
				if err != nil {
					return fmt.Errorf("tls: bad server ECDHE value: %w", err)
				}
				premaster, err = priv.ECDH(peer)
				if err != nil {
					return err
				}
				if fixed {
					clientPub = fixedECDHEPub()
					clientPremasterPutECDHE(ske.Public, premaster, clientPub)
				} else {
					clientPub = priv.PublicKey().Bytes()
				}
			}
		} else {
			if fixed {
				premaster, clientPub = clientPremasterDHE(ske.P, ske.G, ske.Public)
			}
			if premaster == nil {
				p := new(big.Int).SetBytes(ske.P)
				g := new(big.Int).SetBytes(ske.G)
				var x *big.Int
				var ycb []byte
				if fixed {
					x, _, ycb = fixedDHEKey(p, g)
				} else {
					var xb [32]byte
					if _, err := io.ReadFull(cfg.rand(), xb[:]); err != nil {
						return err
					}
					x = new(big.Int).SetBytes(xb[:])
					ycb = new(big.Int).Exp(g, x, p).Bytes()
				}
				ys := new(big.Int).SetBytes(ske.Public)
				if ys.Sign() <= 0 || ys.Cmp(p) >= 0 {
					return errors.New("tls: server DH value out of range")
				}
				premaster = new(big.Int).Exp(ys, x, p).Bytes()
				clientPub = ycb
				if fixed {
					clientPremasterPutDHE(ske.P, ske.G, ske.Public, premaster, clientPub)
				}
			}
		}
	default:
		return fmt.Errorf("tls: unsupported key exchange %v", kex)
	}

	// ServerHelloDone.
	msg, _, err = hc.readMsg()
	if err != nil {
		return err
	}
	if msg.Type != wire.TypeServerHelloDone {
		return fmt.Errorf("tls: expected ServerHelloDone, got %d", msg.Type)
	}

	// Publish the agreement to the in-process exchange cache before the
	// CKE leaves: the server handling this connection recomputes exactly
	// these bytes from its private half, and the store-before-write order
	// means its lookup hits. cap.ServerKEXValue carries the same bytes as
	// the SKE public value, and the map keys copy them.
	if premaster != nil {
		keyex.PremasterStore(cap.ServerKEXValue, clientPub, premaster)
	}
	hc.mbuf = wire.AppendCKE(hc.mbuf[:0], kex, clientPub)
	if err := hc.writeFramed(hc.mbuf); err != nil {
		return err
	}
	// Master secret and key block, derived in the pooled expander and the
	// connection's scratch (only the Session copy of the master survives).
	hc.ex.SetSecret(premaster)
	msSeed := append(append(hc.seed[:0], ch.Random[:]...), sh.Random[:]...)
	master := hc.ex.AppendPRF(hc.master[:0], "master secret", msSeed, 48)
	hc.ex.SetSecret(master)
	kbs := append(append(hc.seed[:0], sh.Random[:]...), ch.Random[:]...)
	kb := hc.ex.AppendPRF(hc.kb[:0], "key expansion", kbs, 40)

	preFinished := hc.transcript()
	if err := hc.rc.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	if err := hc.rc.ArmWrite(kb[0:16], kb[32:36]); err != nil {
		return err
	}
	fin := wire.Msg{Type: wire.TypeFinished, Body: hc.ex.AppendPRF(hc.fin[:0], "client finished", preFinished, 12)}
	if err := hc.writeMsg(&fin); err != nil {
		return err
	}

	// Server side: optional NewSessionTicket (plaintext), CCS, Finished.
	msg, ccs, err := hc.readMsg()
	if err != nil {
		return err
	}
	if !ccs && msg.Type == wire.TypeNewSessionTicket {
		if err := recordTicket(cap, msg); err != nil {
			return err
		}
		msg, ccs, err = hc.readMsg()
		if err != nil {
			return err
		}
	}
	if !ccs {
		return fmt.Errorf("tls: expected server ChangeCipherSpec")
	}
	if err := hc.rc.ArmRead(kb[16:32], kb[36:40]); err != nil {
		return err
	}
	preServer := hc.transcript()
	msg, _, err = hc.readMsg()
	if err != nil {
		return err
	}
	want := hc.ex.AppendPRF(hc.fin[:0], "server finished", preServer, 12)
	if msg.Type != wire.TypeFinished || !equal(msg.Body, want) {
		return errors.New("tls: bad server Finished")
	}

	sess := &Session{Suite: sh.Suite, CreatedAt: cfg.now()}
	sess.setID(sh.SessionID)
	sess.setTicket(cap.Ticket)
	copy(sess.Master[:], master)
	cap.Session = sess
	return appData(hc, cfg, cap)
}

func finishResumed(hc *hsConn, cfg *Config, cap *Capture, ch *wire.ClientHello, sh *wire.ServerHello, msg wire.Msg, ccs bool) error {
	cap.Resumed = true
	cap.ResumedViaTicket = cfg.ResumeViaTicket
	master := cfg.Resume.Master[:]
	hc.ex.SetSecret(master)
	kbs := append(append(hc.seed[:0], sh.Random[:]...), ch.Random[:]...)
	kb := hc.ex.AppendPRF(hc.kb[:0], "key expansion", kbs, 40)

	if !ccs { // msg is NewSessionTicket (reissue)
		if err := recordTicket(cap, msg); err != nil {
			return err
		}
		var err error
		_, ccs, err = hc.readMsg()
		if err != nil {
			return err
		}
		if !ccs {
			return errors.New("tls: expected CCS after reissued ticket")
		}
	}
	if err := hc.rc.ArmRead(kb[16:32], kb[36:40]); err != nil {
		return err
	}
	preServer := hc.transcript()
	fin, _, err := hc.readMsg()
	if err != nil {
		return err
	}
	want := hc.ex.AppendPRF(hc.fin[:0], "server finished", preServer, 12)
	if fin.Type != wire.TypeFinished || !equal(fin.Body, want) {
		return errors.New("tls: bad server Finished on resumption")
	}

	preClient := hc.transcript()
	if err := hc.rc.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	if err := hc.rc.ArmWrite(kb[0:16], kb[32:36]); err != nil {
		return err
	}
	cfin := wire.Msg{Type: wire.TypeFinished, Body: hc.ex.AppendPRF(hc.fin[:0], "client finished", preClient, 12)}
	if err := hc.writeMsg(&cfin); err != nil {
		return err
	}
	// Nothing is read after the final Finished, so flush here — its write
	// error must surface from this call, not vanish in the deferred flush.
	if err := hc.rc.Flush(); err != nil {
		return err
	}

	sess := &Session{Suite: sh.Suite, CreatedAt: cfg.now()}
	sess.setID(sh.SessionID)
	sess.setTicket(cap.Ticket)
	if len(sess.Ticket) == 0 {
		sess.setTicket(cfg.Resume.Ticket)
	}
	copy(sess.Master[:], master)
	cap.Session = sess
	cap.CipherSuite = sh.Suite
	return appData(hc, cfg, cap)
}

func recordTicket(cap *Capture, msg wire.Msg) error {
	nst, err := wire.ParseNewSessionTicket(msg.Body)
	if err != nil {
		return err
	}
	cap.TicketIssued = true
	cap.Ticket = copyInto(cap.tktbuf[:], nst.Ticket)
	// Derived from the capture-owned copy, so STEKID stays valid after the
	// handshake buffer nst.Ticket aliases is recycled.
	cap.STEKID = ticket.ExtractKeyID(cap.Ticket)
	cap.LifetimeHint = nst.LifetimeHint
	return nil
}

func appData(hc *hsConn, cfg *Config, cap *Capture) error {
	if len(cfg.AppData) == 0 {
		return nil
	}
	if err := hc.rc.WriteRecord(record.TypeAppData, cfg.AppData); err != nil {
		return err
	}
	rec, err := hc.rc.ReadRecord()
	if err != nil {
		return err
	}
	if rec.Type != record.TypeAppData {
		return fmt.Errorf("tls: expected application data, got record type %d", rec.Type)
	}
	// Payload aliases the record layer's reusable read buffer; the capture
	// outlives the connection, so copy (empty stays nil, as append would).
	if len(rec.Payload) > 0 {
		cap.AppResp = copyInto(cap.appResp[:], rec.Payload)
	}
	return nil
}

// fixedECDHEKey returns the process-wide fixed client P-256 key, now
// hosted by internal/keyex so the server side can prime the premaster
// exchange cache against it (the derivation, and therefore every
// campaign byte, is unchanged).
func fixedECDHEKey() *ecdh.PrivateKey {
	k, _ := keyex.FixedClientECDHE()
	return k
}

// fixedECDHEPub returns the fixed key's marshaled public point, which is
// written into the CKE (AppendCKE copies it) but never mutated.
func fixedECDHEPub() []byte {
	_, pub := keyex.FixedClientECDHE()
	return pub
}

// fixedDHEKey returns the fixed client DH exponent and the memoized g^x
// (as big.Int and marshaled bytes) for the given group: the population
// uses one group, so this is a single modexp per process instead of one
// per scan.
type dheKey struct {
	x, yc *big.Int
	ycb   []byte
}

var fixedDHE struct {
	mu sync.Mutex
	m  map[string]dheKey // P||G -> {x, g^x, bytes(g^x)}
}

func fixedDHEKey(p, g *big.Int) (x, yc *big.Int, ycb []byte) {
	key := string(p.Bytes()) + "|" + string(g.Bytes())
	fixedDHE.mu.Lock()
	defer fixedDHE.mu.Unlock()
	if v, ok := fixedDHE.m[key]; ok {
		return v.x, v.yc, v.ycb
	}
	var xb [32]byte
	_, _ = io.ReadFull(drbg.NewString("tlsclient|fixed-dhe"), xb[:])
	x = new(big.Int).SetBytes(xb[:])
	yc = new(big.Int).Exp(g, x, p)
	ycb = yc.Bytes()
	if fixedDHE.m == nil {
		fixedDHE.m = make(map[string]dheKey)
	}
	fixedDHE.m[key] = dheKey{x: x, yc: yc, ycb: ycb}
	return x, yc, ycb
}

// clientPM caches the premaster secret (and the matching marshaled client
// public) per server KEX value, usable only with the fixed client key.
// Reuse-policy servers repeat their KEX value across connections, so each
// such server costs one ECDH/modexp for the whole campaign. Entries are
// returned by reference: premasters feed the PRF and publics the CKE, both
// read-only. Hit counts depend on which worker probes a server first, so
// the telemetry counter is wall-prefixed (excluded from determinism
// comparisons). Bounded by wholesale clear, like the server-side caches.
type pmEntry struct{ pm, pub []byte }

var clientPM struct {
	mu sync.RWMutex
	ec map[string]pmEntry                       // server ECDHE point -> entry
	dh map[string]map[string]map[string]pmEntry // P -> G -> Ys -> entry
	n  int
}

const maxClientPMEntries = 8192

func clientPremasterECDHE(pub []byte) (pm, cpub []byte) {
	clientPM.mu.RLock()
	e, ok := clientPM.ec[string(pub)]
	clientPM.mu.RUnlock()
	if !ok {
		return nil, nil
	}
	telemetry.Global().Counter("wall/tlsclient/premaster_hit").Inc()
	return e.pm, e.pub
}

func clientPremasterPutECDHE(pub, pm, cpub []byte) {
	clientPM.mu.Lock()
	defer clientPM.mu.Unlock()
	if clientPM.n >= maxClientPMEntries {
		clientPM.ec, clientPM.dh, clientPM.n = nil, nil, 0
	}
	if clientPM.ec == nil {
		clientPM.ec = make(map[string]pmEntry)
	}
	// No defensive copies: pm is the fresh slice the key agreement just
	// returned (only ever read — the PRF copies it into its HMAC pads)
	// and cpub is the immutable fixed-key public.
	clientPM.ec[string(pub)] = pmEntry{pm: pm, pub: cpub}
	clientPM.n++
}

func clientPremasterDHE(p, g, ys []byte) (pm, cpub []byte) {
	clientPM.mu.RLock()
	e, ok := clientPM.dh[string(p)][string(g)][string(ys)]
	clientPM.mu.RUnlock()
	if !ok {
		return nil, nil
	}
	telemetry.Global().Counter("wall/tlsclient/premaster_hit").Inc()
	return e.pm, e.pub
}

func clientPremasterPutDHE(p, g, ys, pm, cpub []byte) {
	clientPM.mu.Lock()
	defer clientPM.mu.Unlock()
	if clientPM.n >= maxClientPMEntries {
		clientPM.ec, clientPM.dh, clientPM.n = nil, nil, 0
	}
	if clientPM.dh == nil {
		clientPM.dh = make(map[string]map[string]map[string]pmEntry)
	}
	gm := clientPM.dh[string(p)]
	if gm == nil {
		gm = make(map[string]map[string]pmEntry)
		clientPM.dh[string(p)] = gm
	}
	ym := gm[string(g)]
	if ym == nil {
		ym = make(map[string]pmEntry)
		gm[string(g)] = ym
	}
	// Same ownership argument as the ECDHE put: both slices are
	// fresh-or-immutable and only ever read.
	ym[string(ys)] = pmEntry{pm: pm, pub: cpub}
	clientPM.n++
}

// leafCache memoizes x509.ParseCertificate by leaf fingerprint: the
// scanner re-parses the same few hundred leaves tens of thousands of
// times to check ServerKeyExchange signatures.
var leafCache sync.Map // [32]byte -> *x509.Certificate

func parseLeaf(der []byte) (*x509.Certificate, error) {
	key := sha256.Sum256(der)
	if v, ok := leafCache.Load(key); ok {
		return v.(*x509.Certificate), nil
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	leafCache.Store(key, leaf)
	return leaf, nil
}

func verifySKE(hc *hsConn, chain [][]byte, ske *wire.SKE, clientRandom, serverRandom []byte) error {
	if len(chain) == 0 {
		return errors.New("tls: no certificate to verify ServerKeyExchange")
	}
	leaf, err := parseLeaf(chain[0])
	if err != nil {
		return err
	}
	hc.sp = ske.AppendSignedParams(hc.sp[:0], clientRandom, serverRandom)
	digest := sha256.Sum256(hc.sp)
	return pki.VerifySKE(leaf.PublicKey, digest[:], ske.Sig)
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
