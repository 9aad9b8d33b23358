// Package tlsserver is the from-scratch TLS 1.2 server state machine: full
// handshakes (ECDHE/DHE), session-ID resumption, RFC 5077 ticket
// resumption with reissue, SNI virtual hosting, and the configurable
// shortcut policies the paper measures — session-cache lifetime, STEK
// rotation, and KEX value reuse.
package tlsserver

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
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/wire"
)

// Config is one SSL terminator's behavior. The zero value of the policy
// fields is the safest configuration (fresh KEX values, no cache, no
// tickets); the population wires in the shortcuts.
type Config struct {
	Clock simclock.Clock

	// Certificates: SNI name -> cert, with DefaultCert as fallback.
	DefaultCert *pki.Certificate
	Certs       map[string]*pki.Certificate

	// Session tickets. A nil Tickets manager disables tickets entirely.
	Tickets    ticket.Manager
	TicketHint time.Duration

	// Session-ID cache; nil disables ID resumption. Shared instances
	// model cross-domain cache groups.
	Cache *session.Cache

	// Cipher support and KEX reuse policies.
	DisableECDHE bool
	DisableDHE   bool
	ECDHEPolicy  *keyex.Policy
	DHEPolicy    *keyex.Policy

	// DHEGroup overrides the FFDH group served in the ServerKeyExchange;
	// nil means the default simulation group. The weak-crypto population
	// points this at the shared export-grade group.
	DHEGroup *ffdh.Group

	// Rand supplies all server entropy (hello randoms, IVs, session
	// IDs); nil means crypto/rand.
	Rand io.Reader

	// RandSeed, when non-nil and Rand is nil, makes the terminator's
	// entropy deterministic: each connection draws from a drbg stream
	// keyed by (RandSeed, ClientHello.Random). Campaigns set this so the
	// same study seed replays byte-identical datasets.
	RandSeed []byte

	// Respond maps one application-data record to a response; nil gives
	// a canned HTTP 200.
	Respond func([]byte) []byte

	// Telemetry, when non-nil, counts the terminator's events. Telemetry
	// observes, never perturbs: it changes no byte on the wire.
	Telemetry *Counters
}

// Counters counts terminator events into one registry: ticket
// resumption lookups and hand-offs taken from in-process clients, and
// through the layers below the key-exchange values served, session-cache
// lookups and sweeps, and STEK derivations and rotations. NewCounters
// resolves them once, so every Config of a world can share one.
type Counters struct {
	reg                          *telemetry.Registry // for the STEK managers
	openOK, openMiss             *telemetry.Counter
	premasterHit, aeadHandedOver *telemetry.Counter
	keyex                        keyex.Counters
	session                      session.Counters
}

// NewCounters resolves r's terminator counters.
func NewCounters(r *telemetry.Registry) *Counters {
	return &Counters{
		reg:            r,
		openOK:         r.LazyCounter("ticket/open_ok"),
		openMiss:       r.LazyCounter("ticket/open_miss"),
		premasterHit:   r.LazyCounter("keyex/premaster_exchange_hit"),
		aeadHandedOver: r.LazyCounter("record/aead_cache_hit"),
		keyex:          keyex.NewCounters(r),
		session:        session.NewCounters(r),
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

func (c *Config) now() time.Time {
	if c.Clock != nil {
		return c.Clock.Now()
	}
	return time.Now()
}

func (c *Config) certFor(sni string) *pki.Certificate {
	if c.Certs != nil {
		if crt, ok := c.Certs[sni]; ok {
			return crt
		}
	}
	return c.DefaultCert
}

// hsConn is one connection's handshake state, pooled. The server retains
// nothing that aliases it past the handshake: the session cache copies
// its key, and session.State holds only values.
type hsConn struct {
	handshake.Conn
	rng    drbg.Reader // per-connection deterministic entropy (RandSeed mode)
	sigRng drbg.Reader // separate stream for SKE signing (see full())
	mbuf   []byte      // outgoing handshake-message marshal scratch
	sp     []byte      // SKE signed-params scratch, then its signature
	ch     wire.ClientHello
	sh     wire.ServerHello
	ske    wire.SKE
	st     session.State // ticket-resume state scratch (see OpenTicketInto)
	sid    [32]byte      // session-ID scratch for sh.SessionID
}

var hsPool = sync.Pool{New: func() any { return new(hsConn) }}

// connRand returns the entropy source for one connection: Rand when
// set, else with RandSeed a fresh deterministic stream per ClientHello
// in the pooled connection's reader (the client random salts it, so
// concurrent connections never share a stream), else crypto/rand.
func (h *hsConn) connRand(cfg *Config, clientRandom []byte) io.Reader {
	switch {
	case cfg.Rand != nil:
		return cfg.Rand
	case cfg.RandSeed != nil:
		h.rng.Reseed(cfg.RandSeed, clientRandom)
		return &h.rng
	}
	return crand.Reader
}

// Serve runs one server-side connection to completion: handshake, then an
// application-data echo loop until the peer closes.
func Serve(conn net.Conn, cfg *Config) error {
	hc := hsPool.Get().(*hsConn)
	hc.Reset(conn)
	defer func() {
		hc.Reset(nil) // the pool keeps neither the transport nor its ciphers
		hsPool.Put(hc)
	}()
	// Reads flush pending coalesced flights, so this only delivers bytes
	// on paths that exit without reading again.
	defer hc.Record.Flush()
	err := serverHandshake(hc, cfg)
	if err == nil {
		err = appLoop(&hc.Record, cfg)
	}
	return sendAlert(&hc.Record, err)
}

// sendAlert answers err with the alert a crypto/tls server sends for
// the same input, when err is a *record.ProtocolError, and returns err.
// Protocol errors reach Serve unwrapped, so a type assertion finds them
// without the allocation errors.As costs every failed connection.
func sendAlert(rc *record.Conn, err error) error {
	if pe, ok := err.(*record.ProtocolError); ok {
		rc.WriteAlert(pe.Alert)
	}
	return err
}

func appLoop(rc *record.Conn, cfg *Config) error {
	for {
		rec, err := rc.ReadRecord()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch rec.Type {
		case record.TypeAppData:
			resp := []byte("HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nok\n")
			if cfg.Respond != nil {
				resp = cfg.Respond(rec.Payload)
			}
			if err := rc.WriteRecord(record.TypeAppData, resp); err != nil {
				return err
			}
		case record.TypeAlert:
			return nil // close_notify
		default:
			return record.WithAlert(record.AlertUnexpectedMessage, fmt.Errorf("tls: unexpected record type %d", rec.Type))
		}
	}
}

func serverHandshake(hc *hsConn, cfg *Config) error {
	msg, ccs, err := hc.ReadMsg()
	if err != nil {
		return err
	}
	if ccs { // silent, like any first record of another type (handshake.ReadMsg)
		return errors.New("tls: ChangeCipherSpec in place of the ClientHello")
	}
	if msg.Type != wire.TypeClientHello {
		return record.WithAlert(record.AlertUnexpectedMessage, fmt.Errorf("tls: expected ClientHello, got %d", msg.Type))
	}
	ch := &hc.ch
	if err := wire.ParseClientHelloInto(ch, msg.Body); err != nil {
		return record.WithAlert(record.AlertUnexpectedMessage, err)
	}
	now := cfg.now()
	tel := cfg.counters()

	// Ticket resumption?
	if len(ch.Ticket) > 0 && cfg.Tickets != nil {
		// Decode into the pooled connection's scratch: the resume path's
		// state is transient (never stored), so a per-ticket State and
		// decrypt buffer would be pure overhead.
		opened := cfg.Tickets.OpenTicketInto(&hc.st, ch.Ticket, now, tel.reg)
		if opened {
			tel.openOK.Inc()
		} else {
			tel.openMiss.Inc()
		}
		if opened && suiteOffered(ch.Suites, hc.st.Suite) {
			return resume(hc, cfg, ch, &hc.st, now)
		}
	}
	// Session-ID resumption?
	if len(ch.SessionID) > 0 && cfg.Cache != nil {
		if st := tel.session.Get(cfg.Cache, ch.SessionID, now); st != nil && suiteOffered(ch.Suites, st.Suite) {
			return resume(hc, cfg, ch, st, now)
		}
	}
	return full(hc, cfg, ch, now)
}

func suiteOffered(offer []uint16, s uint16) bool {
	for _, o := range offer {
		if o == s {
			return true
		}
	}
	return false
}

func (c *Config) pickSuite(offer []uint16) uint16 {
	for _, s := range offer {
		switch s {
		case wire.SuiteECDHE:
			if !c.DisableECDHE {
				return s
			}
		case wire.SuiteDHE:
			if !c.DisableDHE {
				return s
			}
		}
	}
	return 0
}

// serverHelloDone is the framed ServerHelloDone message; it has no body.
var serverHelloDone = []byte{wire.TypeServerHelloDone, 0, 0, 0}

func full(hc *hsConn, cfg *Config, ch *wire.ClientHello, now time.Time) error {
	suite := cfg.pickSuite(ch.Suites)
	if suite == 0 {
		return record.WithAlert(record.AlertHandshakeFailure, errors.New("tls: no mutually supported cipher suite"))
	}
	crt := cfg.certFor(ch.ServerName)
	if crt == nil {
		return record.WithAlert(record.AlertHandshakeFailure, errors.New("tls: no certificate configured"))
	}
	rnd := hc.connRand(cfg, ch.Random[:])

	sh := &hc.sh
	*sh = wire.ServerHello{Suite: suite}
	if _, err := io.ReadFull(rnd, sh.Random[:]); err != nil {
		return err
	}
	if cfg.Cache != nil {
		// Scratch-backed: the cache copies its key, so nothing retains it.
		sh.SessionID = hc.sid[:]
		if _, err := io.ReadFull(rnd, sh.SessionID); err != nil {
			return err
		}
	}
	issueTicket := cfg.Tickets != nil && ch.OfferTicket
	sh.TicketAck = issueTicket
	hc.mbuf = sh.AppendTo(hc.mbuf[:0])
	if err := hc.WriteMsg(hc.mbuf); err != nil {
		return err
	}
	hc.mbuf = wire.AppendCertificate(hc.mbuf[:0], crt.Chain)
	if err := hc.WriteMsg(hc.mbuf); err != nil {
		return err
	}

	// ServerKeyExchange with the policy-selected ephemeral value. The
	// private value is held in typed locals (not a closure) so the
	// premaster computation after the CKE arrives allocates nothing extra.
	// The value, the ECDHE key and the signature's nonce go to the
	// connection's hand-off before the SKE that carries them is queued.
	link := hc.Record.Link()
	tel := cfg.counters()
	var ecdhePriv *ecdh.PrivateKey
	var dheGroup *ffdh.Group
	var dhePriv *big.Int
	ske := &hc.ske
	*ske = wire.SKE{Kex: wire.SuiteKex(suite)}
	switch ske.Kex {
	case wire.KexECDHE:
		priv, pub, err := tel.keyex.ECDHEKeyPub(cfg.ECDHEPolicy, now, rnd)
		if err != nil {
			return err
		}
		ske.Public = pub
		ecdhePriv = priv
		link.SetServerValue(pub, priv)
	case wire.KexDHE:
		g := cfg.DHEGroup
		if g == nil {
			g = ffdh.TestGroup512()
		}
		priv, pub, err := tel.keyex.DHEKey(g, cfg.DHEPolicy, now, rnd)
		if err != nil {
			return err
		}
		ske.P, ske.G = g.ParamBytes()
		ske.Public = pub
		dheGroup, dhePriv = g, priv
		link.SetServerValue(pub, nil)
	default:
		return record.WithAlert(record.AlertHandshakeFailure, fmt.Errorf("tls: unsupported key exchange for suite %04x", suite))
	}
	hc.sp = ske.AppendSignedParams(hc.sp[:0], ch.Random[:], sh.Random[:])
	digest := sha256.Sum256(hc.sp)
	// In deterministic mode the signature draws its entropy from its own
	// stream, so every later draw on the connection stream — the
	// session-ticket IV — sits at an offset no signer can move, whatever
	// the key type and however many bytes its signer reads. Nothing
	// recorded depends on signature bytes, only on their verifiability.
	sigRand := rnd
	if cfg.Rand == nil && cfg.RandSeed != nil {
		hc.sigRng.ReseedParts(cfg.RandSeed, string(ch.Random[:]), "ske-sig")
		sigRand = &hc.sigRng
	}
	// The signature goes after the signed parameters in their scratch.
	signed := len(hc.sp)
	var err error
	if hc.sp, err = crt.SignSKE(hc.sp, sigRand, digest[:], link.SKE()); err != nil {
		return err
	}
	ske.Sig = hc.sp[signed:]
	hc.mbuf = ske.AppendTo(hc.mbuf[:0])
	if err := hc.WriteMsg(hc.mbuf); err != nil {
		return err
	}
	if err := hc.WriteMsg(serverHelloDone); err != nil {
		return err
	}

	// ClientKeyExchange.
	msg, _, err := hc.ReadMsg()
	if err != nil {
		return err
	}
	if msg.Type != wire.TypeClientKeyExchange {
		return record.WithAlert(record.AlertUnexpectedMessage, fmt.Errorf("tls: expected ClientKeyExchange, got %d", msg.Type))
	}
	clientPub, err := wire.ParseCKE(ske.Kex, msg.Body)
	if err != nil {
		return record.WithAlert(record.AlertIllegalParameter, err)
	}
	// An in-process client hands over the agreement it computed for
	// this server value before its CKE is queued, and the hand-off
	// replaces the scalar multiplication or modexp under both policies.
	// Without one (a client outside this process, or a client value
	// other than the one it published) the server computes it.
	premaster := link.Premaster(clientPub)
	if premaster != nil {
		tel.premasterHit.Inc()
	} else {
		if ecdhePriv != nil {
			pk, err := ecdh.P256().NewPublicKey(clientPub)
			if err != nil {
				return record.WithAlert(record.AlertIllegalParameter, fmt.Errorf("tls: bad client ECDHE value: %w", err))
			}
			if premaster, err = ecdhePriv.ECDH(pk); err != nil {
				return record.WithAlert(record.AlertIllegalParameter, err)
			}
		} else if premaster, err = dheGroup.Shared(dhePriv, new(big.Int).SetBytes(clientPub)); err != nil {
			return record.WithAlert(record.AlertIllegalParameter, err)
		}
	}
	master := hc.DeriveMaster(premaster, ch.Random[:], sh.Random[:])

	// Client CCS + Finished. Only the read direction is armed here: the
	// NewSessionTicket must still go out in plaintext before our CCS.
	if err := readCCS(hc); err != nil {
		return err
	}
	if err := hc.ReadFinished(handshake.Client, tel.aeadHandedOver); err != nil {
		return err
	}

	st := &session.State{Version: wire.VersionTLS12, Suite: suite, CreatedAt: now}
	copy(st.MasterSecret[:], master)

	if issueTicket {
		if err := sendTicket(hc, cfg, st, now, rnd); err != nil {
			return err
		}
	}
	if cfg.Cache != nil {
		// Surface any transport failure of the pending flight before
		// mutating the cache, preserving the per-record-write ordering: a
		// connection cut during the ticket flight must not leave a
		// resumable cache entry behind.
		if err := hc.Record.Flush(); err != nil {
			return err
		}
		tel.session.Put(cfg.Cache, sh.SessionID, st, now)
	}
	return hc.SendFinished(handshake.Server)
}

// resume completes an abbreviated handshake from cached/ticket state.
func resume(hc *hsConn, cfg *Config, ch *wire.ClientHello, st *session.State, now time.Time) error {
	rnd := hc.connRand(cfg, ch.Random[:])
	sh := &hc.sh
	*sh = wire.ServerHello{Suite: st.Suite, SessionID: ch.SessionID}
	if _, err := io.ReadFull(rnd, sh.Random[:]); err != nil {
		return err
	}
	reissue := cfg.Tickets != nil && ch.OfferTicket
	sh.TicketAck = reissue
	hc.mbuf = sh.AppendTo(hc.mbuf[:0])
	if err := hc.WriteMsg(hc.mbuf); err != nil {
		return err
	}
	if reissue {
		if err := sendTicket(hc, cfg, st, now, rnd); err != nil {
			return err
		}
	}
	// Server Finished first on resumption.
	hc.UseMaster(st.MasterSecret[:], ch.Random[:], sh.Random[:])
	if err := hc.SendFinished(handshake.Server); err != nil {
		return err
	}
	if err := readCCS(hc); err != nil {
		return err
	}
	return hc.ReadFinished(handshake.Client, cfg.counters().aeadHandedOver)
}

// readCCS reads the client's ChangeCipherSpec.
func readCCS(hc *hsConn) error {
	_, ccs, err := hc.ReadMsg()
	if err == nil && !ccs {
		err = record.WithAlert(record.AlertUnexpectedMessage, errors.New("tls: expected ChangeCipherSpec"))
	}
	return err
}

func sendTicket(hc *hsConn, cfg *Config, st *session.State, now time.Time, rnd io.Reader) error {
	k := cfg.Tickets.IssuingKey(now, cfg.counters().reg)
	hint := cfg.TicketHint
	if hint == 0 {
		hint = 2 * time.Hour
	}
	// Sealed tickets have one fixed length per key, so the message prefix
	// is written first and the ticket sealed directly behind it in the
	// outgoing buffer: the flight's serialization allocates nothing.
	hc.mbuf = wire.AppendNSTPrefix(hc.mbuf[:0], hint, k.SealedLen())
	var err error
	hc.mbuf, err = k.AppendSeal(hc.mbuf, st, rnd)
	if err != nil {
		return err
	}
	return hc.WriteMsg(hc.mbuf)
}
