// Package tlsclient is the zgrab-analog scanning client: restricted
// cipher offers, capture of everything the study records (server random,
// session ID, certificate chain, KEX value, ticket, STEK ID, lifetime
// hint, master secret), and resumption by session ID or ticket.
package tlsclient

import (
	"crypto/ecdh"
	crand "crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/handshake"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/wire"
)

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

	// Telemetry, when non-nil, counts the hand-offs the connection takes
	// from an in-process server. Telemetry observes, never perturbs.
	Telemetry *Counters
}

// Counters counts the hand-offs a client takes into one registry: the
// server's ECDHE key or DHE exponent for the premaster, its key block on
// a resumption, its SKE signature nonce, and its AEAD. NewCounters
// resolves them once, so every connection of a scanner or traffic
// engine can share one.
type Counters struct {
	scalarHit, exponentHit, keyScheduleHit, skeNonceHit, aeadHandedOver *telemetry.Counter
}

// NewCounters resolves r's client counters.
func NewCounters(r *telemetry.Registry) *Counters {
	return &Counters{
		scalarHit:      r.LazyCounter("keyex/scalar_exchange_hit"),
		exponentHit:    r.LazyCounter("keyex/exponent_exchange_hit"),
		keyScheduleHit: r.LazyCounter("handshake/key_schedule_hit"),
		skeNonceHit:    r.LazyCounter("pki/ske_nonce_hit"),
		aeadHandedOver: r.LazyCounter("record/aead_cache_hit"),
	}
}

// uncounted serves Configs without Telemetry: every counter is nil.
var uncounted Counters

func (c *Config) counters() *Counters {
	if c.Telemetry != nil {
		return c.Telemetry
	}
	return &uncounted
}

// Capture is everything the scanner records about one connection. Every
// retained byte field is backed by the Capture's own inline arrays (heap
// fallback for oversized values): the handshake buffer they were parsed
// from is pooled and reused by the next connection on the same worker. Captures are reused via HandshakeInto and must not be
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

// hsConn is one connection's handshake state, pooled. Everything retained
// past the handshake (session IDs, tickets, KEX values, master secrets) is
// copied into Capture- or Session-owned storage, so nothing aliases the
// handshake buffer or this scratch across connections.
type hsConn struct {
	handshake.Conn
	mbuf []byte // outgoing handshake-message marshal scratch
	sp   []byte // SKE signed-params scratch
	ch   wire.ClientHello
	sh   wire.ServerHello
	// Parse scratch: the certificate chain's top-level slice and the
	// ServerKeyExchange, whose elements and fields alias the handshake
	// buffer.
	chain [][]byte
	skeM  wire.SKE
}

var hsPool = sync.Pool{New: func() any { return new(hsConn) }}

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
	hc := hsPool.Get().(*hsConn)
	hc.Reset(conn)
	defer func() {
		hc.Reset(nil) // the pool keeps neither the transport nor its ciphers
		hsPool.Put(hc)
	}()
	// Flush any record bytes still coalesced when a path returns without a
	// subsequent read (the resumed handshake's final Finished). Runs before
	// the pool Put (LIFO). Paths whose callers must see the write error
	// flush explicitly first, making this a no-op backstop.
	defer hc.Record.Flush()

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
	if err := hc.WriteMsg(hc.mbuf); err != nil {
		return err
	}

	msg, _, err := hc.ReadMsg()
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
	msg, ccs, err := hc.ReadMsg()
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
	if cfg.Roots != nil {
		cap.Trusted = cfg.Roots.VerifyServed(chain, hc.Record.Link().Certificate(), cfg.ServerName, cfg.now())
	}

	kex := wire.SuiteKex(sh.Suite)
	var premaster, clientPub []byte
	switch kex {
	case wire.KexECDHE, wire.KexDHE:
		msg, _, err = hc.ReadMsg()
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
		if err := verifySKE(hc, cfg, chain, ske, ch.Random[:], sh.Random[:]); err != nil {
			return err
		}
		// The fixed-key path draws no randomness, so however the premaster
		// is found, the DRBG stream never shifts.
		fixed := cfg.ReuseKex
		if kex == wire.KexECDHE {
			var priv *ecdh.PrivateKey
			if fixed {
				// An in-process server hands over its ECDHE key before
				// the SKE we just parsed was queued: deriving the secret
				// from both scalars is a base-point multiplication, ~3x
				// cheaper than x*Ys. The key is taken only for the value
				// it generated, so the skipped on-curve check cannot
				// admit a bad value.
				priv, clientPub = keyex.FixedClientECDHE()
				if premaster = keyex.FixedClientPremaster(hc.Record.Link().ServerKey(ske.Public)); premaster != nil {
					cfg.counters().scalarHit.Inc()
				}
			} else {
				if priv, err = ecdh.P256().GenerateKey(cfg.rand()); err != nil {
					return err
				}
				clientPub = priv.PublicKey().Bytes()
			}
			if premaster == nil {
				peer, err := ecdh.P256().NewPublicKey(ske.Public)
				if err != nil {
					return fmt.Errorf("tls: bad server ECDHE value: %w", err)
				}
				if premaster, err = priv.ECDH(peer); err != nil {
					return err
				}
			}
		} else {
			p := new(big.Int).SetBytes(ske.P)
			g := new(big.Int).SetBytes(ske.G)
			var x *big.Int
			if fixed {
				x, clientPub = fixedDHEKey(p, g)
			} else {
				var xb [32]byte
				if _, err := io.ReadFull(cfg.rand(), xb[:]); err != nil {
					return err
				}
				x = new(big.Int).SetBytes(xb[:])
				clientPub = new(big.Int).Exp(g, x, p).Bytes()
			}
			ys := new(big.Int).SetBytes(ske.Public)
			if !ffdh.ValidPublic(p, ys) {
				return errors.New("tls: server DH value out of range")
			}
			// An in-process server hands over its group and exponent xs
			// before the SKE was queued, and they are taken only for the
			// value, modulus and generator it sent: then
			// Ys^x = g^(xs·x mod p-1) comes from the group's fixed-base
			// table, about a third of the modexp.
			if fixed {
				if g, xs := hc.Record.Link().ServerDHE(ske.Public, ske.P, ske.G); g != nil {
					premaster = g.SharedFromExponents(x, xs)
					cfg.counters().exponentHit.Inc()
				}
			}
			if premaster == nil {
				premaster = new(big.Int).Exp(ys, x, p).Bytes()
			}
		}
	default:
		return fmt.Errorf("tls: unsupported key exchange %v", kex)
	}

	// ServerHelloDone.
	msg, _, err = hc.ReadMsg()
	if err != nil {
		return err
	}
	if msg.Type != wire.TypeServerHelloDone {
		return fmt.Errorf("tls: expected ServerHelloDone, got %d", msg.Type)
	}

	// Hand the agreement and the key schedule to an in-process server
	// before the CKE is queued: it would recompute exactly these bytes
	// from its private half. clientPub and premaster are never written
	// again.
	ske := &hc.skeM
	hc.Record.Link().SetPremaster(ske.Public, ske.P, ske.G, clientPub, premaster)
	master := hc.DeriveMaster(handshake.Client, premaster, ch.Random[:], sh.Random[:], cfg.counters().keyScheduleHit)
	hc.mbuf = wire.AppendCKE(hc.mbuf[:0], kex, clientPub)
	if err := hc.WriteMsg(hc.mbuf); err != nil {
		return err
	}
	if err := hc.SendFinished(handshake.Client); err != nil {
		return err
	}

	// Server side: optional NewSessionTicket (plaintext), CCS, Finished.
	msg, ccs, err := hc.ReadMsg()
	if err != nil {
		return err
	}
	if !ccs && msg.Type == wire.TypeNewSessionTicket {
		if err := recordTicket(cap, msg); err != nil {
			return err
		}
		msg, ccs, err = hc.ReadMsg()
		if err != nil {
			return err
		}
	}
	if !ccs {
		return fmt.Errorf("tls: expected server ChangeCipherSpec")
	}
	if err := hc.ReadFinished(handshake.Server, cfg.counters().aeadHandedOver); err != nil {
		return err
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

	if !ccs { // msg is NewSessionTicket (reissue)
		if err := recordTicket(cap, msg); err != nil {
			return err
		}
		var err error
		_, ccs, err = hc.ReadMsg()
		if err != nil {
			return err
		}
		if !ccs {
			return errors.New("tls: expected CCS after reissued ticket")
		}
	}
	// After the server's ChangeCipherSpec, which an in-process server
	// queues after publishing its key block.
	hc.UseMaster(handshake.Client, master, ch.Random[:], sh.Random[:], cfg.counters().keyScheduleHit)
	if err := hc.ReadFinished(handshake.Server, cfg.counters().aeadHandedOver); err != nil {
		return err
	}
	if err := hc.SendFinished(handshake.Client); err != nil {
		return err
	}
	// Nothing is read after the final Finished, so flush here — its write
	// error must surface from this call, not vanish in the deferred flush.
	if err := hc.Record.Flush(); err != nil {
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
	if err := hc.Record.WriteRecord(record.TypeAppData, cfg.AppData); err != nil {
		return err
	}
	rec, err := hc.Record.ReadRecord()
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

// fixedDHEKey returns the fixed client DH exponent and the memoized
// marshaled g^x for the given group: the population uses one group, so
// this is a single modexp per process instead of one per scan.
type dheKey struct {
	x   *big.Int
	pub []byte
}

var fixedDHE struct {
	mu sync.Mutex
	m  map[string]dheKey // P||G -> {x, bytes(g^x)}
}

func fixedDHEKey(p, g *big.Int) (x *big.Int, pub []byte) {
	key := string(p.Bytes()) + "|" + string(g.Bytes())
	fixedDHE.mu.Lock()
	defer fixedDHE.mu.Unlock()
	if v, ok := fixedDHE.m[key]; ok {
		return v.x, v.pub
	}
	var xb [32]byte
	_, _ = io.ReadFull(drbg.NewString("tlsclient|fixed-dhe"), xb[:])
	x = new(big.Int).SetBytes(xb[:])
	pub = new(big.Int).Exp(g, x, p).Bytes()
	if fixedDHE.m == nil {
		fixedDHE.m = make(map[string]dheKey)
	}
	fixedDHE.m[key] = dheKey{x: x, pub: pub}
	return x, pub
}

// verifySKE checks the ServerKeyExchange signature against the chain's
// leaf. The root store, when there is one, keeps each leaf's key for
// its world's lifetime; without one the leaf is parsed afresh.
func verifySKE(hc *hsConn, cfg *Config, chain [][]byte, ske *wire.SKE, clientRandom, serverRandom []byte) error {
	if len(chain) == 0 {
		return errors.New("tls: no certificate to verify ServerKeyExchange")
	}
	var leaf *pki.Leaf
	var err error
	if cfg.Roots != nil {
		leaf, err = cfg.Roots.Leaf(chain[0])
	} else {
		leaf, err = pki.ParseLeaf(chain[0])
	}
	if err != nil {
		return err
	}
	hc.sp = ske.AppendSignedParams(hc.sp[:0], clientRandom, serverRandom)
	digest := sha256.Sum256(hc.sp)
	return hc.Record.Link().SKE().Verify(leaf, digest[:], ske.Sig, cfg.counters().skeNonceHit)
}
