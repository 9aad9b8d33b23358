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
	"hash"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/prf"
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

	// RestartBase anchors process-lifetime state (informational).
	RestartBase time.Time

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

// connRand returns the entropy source for one connection. With RandSeed
// set it is a fresh deterministic stream per ClientHello (the client
// random salts it, so concurrent connections never share a stream).
func (c *Config) connRand(clientRandom []byte) io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	if c.RandSeed != nil {
		return drbg.New(c.RandSeed, clientRandom)
	}
	return crand.Reader
}

func (c *Config) certFor(sni string) *pki.Certificate {
	if c.Certs != nil {
		if crt, ok := c.Certs[sni]; ok {
			return crt
		}
	}
	return c.DefaultCert
}

// hsConn couples the record layer with a handshake-message reader and the
// running transcript hash. Instances are pooled and everything resets
// cheaply between connections — including buf: unlike the client, the
// server retains nothing that aliases it past the handshake (cache keys
// are copied via string conversion, ticket state is decoded into fresh
// session.State), so the accumulation buffer is reused too.
type hsConn struct {
	rc     record.Conn
	buf    []byte
	off    int       // consumed prefix of buf (keeps the base pointer pooled)
	hash   hash.Hash // running transcript digest
	ex     prf.Expander
	rng    drbg.Reader // per-connection deterministic entropy (RandSeed mode)
	sigRng drbg.Reader // separate stream for SKE signing (see full())
	mbuf   []byte      // outgoing handshake-message marshal scratch
	sp     []byte      // SKE signed-params scratch
	// Per-connection wire structs, reused across pooled connections;
	// nothing that outlives the handshake aliases them (the session cache
	// copies its key, session.State holds only values).
	ch  wire.ClientHello
	sh  wire.ServerHello
	ske wire.SKE
	st  session.State // ticket-resume state scratch (see OpenTicketInto)
	sid [32]byte      // session-ID scratch for sh.SessionID
	// Fixed derivation scratch; capacities round up to PRF blocks.
	seed   [64]byte // server_random || client_random
	kb     [64]byte // key block (40 bytes used)
	master [64]byte // master secret (48 bytes used; copied into State)
	fin    [32]byte // Finished verify_data (12 bytes used)
	pre    [32]byte // transcript digest
}

var hsPool = sync.Pool{New: func() any { return &hsConn{hash: sha256.New()} }}

func getHsConn(conn net.Conn) *hsConn {
	h := hsPool.Get().(*hsConn)
	h.rc.Reset(conn)
	h.hash.Reset()
	h.buf = h.buf[:0]
	h.off = 0
	return h
}

// connRand is Config.connRand using the pooled connection's reader in
// the deterministic RandSeed mode, so the per-connection stream costs no
// allocation. The stream bytes are identical either way.
func (h *hsConn) connRand(cfg *Config, clientRandom []byte) io.Reader {
	if cfg.Rand == nil && cfg.RandSeed != nil {
		h.rng.Reseed(cfg.RandSeed, clientRandom)
		return &h.rng
	}
	return cfg.connRand(clientRandom)
}

// transcript returns the hash of the handshake messages so far, in the
// connection's digest scratch (valid until the next transcript call).
func (h *hsConn) transcript() []byte {
	return h.hash.Sum(h.pre[:0])
}

func (h *hsConn) writeMsg(m *wire.Msg) error {
	h.mbuf = m.AppendTo(h.mbuf[:0])
	return h.writeRaw(h.mbuf)
}

// writeRaw sends pre-marshaled handshake bytes (the cert-chain message is
// marshaled once per certificate, not once per connection).
func (h *hsConn) writeRaw(b []byte) error {
	h.hash.Write(b)
	return h.rc.WriteRecord(record.TypeHandshake, b)
}

// readMsg returns the next handshake message; ccs is true when a
// ChangeCipherSpec record arrived instead.
//
// Contract: the returned Body (and anything parsed out of it — the
// ClientHello's Ticket/SessionID, a CKE public) aliases the pooled buf
// and is only valid until the next readMsg that pulls a handshake
// record off the wire; consume aliased bytes before reading on.
// (ClientHello.Random is a value array and survives.)
func (h *hsConn) readMsg() (m wire.Msg, ccs bool, err error) {
	for {
		if pend := h.buf[h.off:]; len(pend) >= 4 {
			n := int(pend[1])<<16 | int(pend[2])<<8 | int(pend[3])
			if len(pend) >= 4+n {
				raw := pend[:4+n]
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
			if h.off == len(h.buf) {
				// Fully consumed: rewind instead of appending past the
				// dead prefix, so the pooled buffer's capacity survives.
				h.buf = h.buf[:0]
				h.off = 0
			}
			h.buf = append(h.buf, rec.Payload...)
		case record.TypeChangeCipherSpec:
			return wire.Msg{}, true, nil
		case record.TypeAlert:
			return wire.Msg{}, false, alertError(rec.Payload)
		default:
			return wire.Msg{}, false, fmt.Errorf("tls: unexpected record type %d during handshake", rec.Type)
		}
	}
}

func alertError(p []byte) error {
	if len(p) == 2 {
		return fmt.Errorf("tls: received alert %d", p[1])
	}
	return errors.New("tls: received malformed alert")
}

// Serve runs one server-side connection to completion: handshake, then an
// application-data echo loop until the peer closes.
func Serve(conn net.Conn, cfg *Config) error {
	hc := getHsConn(conn)
	defer hsPool.Put(hc)
	// Reads flush pending coalesced flights, so this only delivers bytes
	// on paths that exit without reading again.
	defer hc.rc.Flush()
	st, err := handshake(hc, cfg)
	if err != nil {
		return err
	}
	_ = st
	return appLoop(&hc.rc, cfg)
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
			return fmt.Errorf("tls: unexpected record type %d", rec.Type)
		}
	}
}

func handshake(hc *hsConn, cfg *Config) (*session.State, error) {
	msg, _, err := hc.readMsg()
	if err != nil {
		return nil, err
	}
	if msg.Type != wire.TypeClientHello {
		return nil, fmt.Errorf("tls: expected ClientHello, got %d", msg.Type)
	}
	ch := &hc.ch
	if err := wire.ParseClientHelloInto(ch, msg.Body); err != nil {
		return nil, err
	}
	now := cfg.now()

	// Ticket resumption?
	if len(ch.Ticket) > 0 && cfg.Tickets != nil {
		// Decode into the pooled connection's scratch: the resume path's
		// state is transient (never stored), so a per-ticket State and
		// decrypt buffer would be pure overhead.
		if cfg.Tickets.OpenTicketInto(&hc.st, ch.Ticket, now) && suiteOffered(ch.Suites, hc.st.Suite) {
			return &hc.st, resume(hc, cfg, ch, &hc.st, now)
		}
	}
	// Session-ID resumption?
	if len(ch.SessionID) > 0 && cfg.Cache != nil {
		if st := cfg.Cache.Get(ch.SessionID, now); st != nil && suiteOffered(ch.Suites, st.Suite) {
			return st, resume(hc, cfg, ch, st, now)
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

func full(hc *hsConn, cfg *Config, ch *wire.ClientHello, now time.Time) (*session.State, error) {
	suite := cfg.pickSuite(ch.Suites)
	if suite == 0 {
		hc.rc.WriteAlert(record.AlertHandshakeFailure)
		return nil, errors.New("tls: no mutually supported cipher suite")
	}
	crt := cfg.certFor(ch.ServerName)
	if crt == nil {
		hc.rc.WriteAlert(record.AlertHandshakeFailure)
		return nil, errors.New("tls: no certificate configured")
	}
	rnd := hc.connRand(cfg, ch.Random[:])

	sh := &hc.sh
	*sh = wire.ServerHello{Suite: suite}
	if _, err := io.ReadFull(rnd, sh.Random[:]); err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		// Scratch-backed: the cache copies its key, so nothing retains it.
		sh.SessionID = hc.sid[:]
		if _, err := io.ReadFull(rnd, sh.SessionID); err != nil {
			return nil, err
		}
	}
	issueTicket := cfg.Tickets != nil && ch.OfferTicket
	sh.TicketAck = issueTicket
	hc.mbuf = sh.AppendTo(hc.mbuf[:0])
	if err := hc.writeRaw(hc.mbuf); err != nil {
		return nil, err
	}
	if err := hc.writeRaw(certMsgBytes(crt)); err != nil {
		return nil, err
	}

	// ServerKeyExchange with the policy-selected ephemeral value. The
	// private value is held in typed locals (not a closure) so the
	// premaster computation after the CKE arrives allocates nothing extra.
	var ecdhePriv *ecdh.PrivateKey
	var dheGroup *ffdh.Group
	var dhePriv *big.Int
	ske := &hc.ske
	*ske = wire.SKE{Kex: wire.SuiteKex(suite)}
	switch ske.Kex {
	case wire.KexECDHE:
		priv, pub, err := keyex.ECDHEKeyPub(cfg.ECDHEPolicy, now, rnd)
		if err != nil {
			return nil, err
		}
		ske.Public = pub
		ecdhePriv = priv
	case wire.KexDHE:
		g := cfg.DHEGroup
		if g == nil {
			g = ffdh.TestGroup512()
		}
		priv, pub, err := keyex.DHEKey(g, cfg.DHEPolicy, now, rnd)
		if err != nil {
			return nil, err
		}
		ske.P, ske.G = g.ParamBytes()
		ske.Public = pub
		dheGroup, dhePriv = g, priv
	default:
		hc.rc.WriteAlert(record.AlertHandshakeFailure)
		return nil, fmt.Errorf("tls: unsupported key exchange for suite %04x", suite)
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
	sig, err := crt.SignSKE(sigRand, digest[:])
	if err != nil {
		return nil, err
	}
	ske.Sig = sig
	hc.mbuf = ske.AppendTo(hc.mbuf[:0])
	if err := hc.writeRaw(hc.mbuf); err != nil {
		return nil, err
	}
	done := wire.Msg{Type: wire.TypeServerHelloDone}
	if err := hc.writeMsg(&done); err != nil {
		return nil, err
	}

	// ClientKeyExchange.
	msg, _, err := hc.readMsg()
	if err != nil {
		return nil, err
	}
	if msg.Type != wire.TypeClientKeyExchange {
		return nil, fmt.Errorf("tls: expected ClientKeyExchange, got %d", msg.Type)
	}
	clientPub, err := wire.ParseCKE(ske.Kex, msg.Body)
	if err != nil {
		return nil, err
	}
	// The in-process client computed and published this exact agreement
	// before its CKE was written, keyed by the two public values — one
	// lookup replaces the scalar multiplication / modexp for both Fresh
	// and Reuse policies. A miss (cache cleared, or a client outside this
	// process) falls through to the caches and computation below.
	premaster := keyex.PremasterLookup(ske.Public, clientPub)
	if ecdhePriv != nil {
		// Under a Reuse policy the epoch private key's pointer is stable,
		// and the scanning client's public value repeats, so the agreement
		// is a pure function of (priv, clientPub) — cacheable.
		reuse := cfg.ECDHEPolicy != nil && cfg.ECDHEPolicy.Mode == keyex.Reuse
		if reuse && premaster == nil {
			premaster = srvPremasterECDHE(ecdhePriv, clientPub)
		}
		if premaster == nil {
			pk, err := ecdh.P256().NewPublicKey(clientPub)
			if err != nil {
				return nil, err
			}
			premaster, err = ecdhePriv.ECDH(pk)
			if err != nil {
				return nil, err
			}
			if reuse {
				srvPremasterPutECDHE(ecdhePriv, clientPub, premaster)
			}
		}
	} else {
		reuse := cfg.DHEPolicy != nil && cfg.DHEPolicy.Mode == keyex.Reuse
		if reuse && premaster == nil {
			premaster = srvPremasterDHE(dhePriv, clientPub)
		}
		if premaster == nil {
			premaster, err = dheGroup.Shared(dhePriv, new(big.Int).SetBytes(clientPub))
			if err != nil {
				return nil, err
			}
			if reuse {
				srvPremasterPutDHE(dhePriv, clientPub, premaster)
			}
		}
	}
	hc.ex.SetSecret(premaster)
	msSeed := append(append(hc.seed[:0], ch.Random[:]...), sh.Random[:]...)
	master := hc.ex.AppendPRF(hc.master[:0], "master secret", msSeed, 48)
	hc.ex.SetSecret(master)

	// Client CCS + Finished. Only the read direction is armed here: the
	// NewSessionTicket must still go out in plaintext before our CCS.
	kbs := append(append(hc.seed[:0], sh.Random[:]...), ch.Random[:]...)
	kb := hc.ex.AppendPRF(hc.kb[:0], "key expansion", kbs, 40)
	preFinished := hc.transcript()
	if _, ccs, err := hc.readMsg(); err != nil {
		return nil, err
	} else if !ccs {
		return nil, errors.New("tls: expected ChangeCipherSpec")
	}
	if err := hc.rc.ArmRead(kb[0:16], kb[32:36]); err != nil {
		return nil, err
	}
	fin, _, err := hc.readMsg()
	if err != nil {
		return nil, err
	}
	want := hc.ex.AppendPRF(hc.fin[:0], "client finished", preFinished, 12)
	if fin.Type != wire.TypeFinished || !bytesEqual(fin.Body, want) {
		hc.rc.WriteAlert(record.AlertHandshakeFailure)
		return nil, errors.New("tls: bad client Finished")
	}

	st := &session.State{Version: wire.VersionTLS12, Suite: suite, CreatedAt: now}
	copy(st.MasterSecret[:], master)

	if issueTicket {
		if err := sendTicket(hc, cfg, st, now, rnd); err != nil {
			return nil, err
		}
	}
	if cfg.Cache != nil {
		// Surface any transport failure of the pending flight before
		// mutating the cache, preserving the per-record-write ordering: a
		// connection cut during the ticket flight must not leave a
		// resumable cache entry behind.
		if err := hc.rc.Flush(); err != nil {
			return nil, err
		}
		cfg.Cache.Put(sh.SessionID, st, now)
	}
	if err := finishServer(hc, kb); err != nil {
		return nil, err
	}
	return st, nil
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
	if err := hc.writeRaw(hc.mbuf); err != nil {
		return err
	}
	if reissue {
		if err := sendTicket(hc, cfg, st, now, rnd); err != nil {
			return err
		}
	}
	hc.ex.SetSecret(st.MasterSecret[:])
	// Server Finished first on resumption.
	preFinished := hc.transcript()
	if err := hc.rc.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	kbs := append(append(hc.seed[:0], sh.Random[:]...), ch.Random[:]...)
	kb := hc.ex.AppendPRF(hc.kb[:0], "key expansion", kbs, 40)
	if err := hc.rc.ArmWrite(kb[16:32], kb[36:40]); err != nil {
		return err
	}
	finMsg := wire.Msg{Type: wire.TypeFinished, Body: hc.ex.AppendPRF(hc.fin[:0], "server finished", preFinished, 12)}
	if err := hc.writeMsg(&finMsg); err != nil {
		return err
	}
	// Client CCS + Finished.
	if _, ccs, err := hc.readMsg(); err != nil {
		return err
	} else if !ccs {
		return errors.New("tls: expected ChangeCipherSpec")
	}
	if err := hc.rc.ArmRead(kb[0:16], kb[32:36]); err != nil {
		return err
	}
	preClient := hc.transcript()
	fin, _, err := hc.readMsg()
	if err != nil {
		return err
	}
	want := hc.ex.AppendPRF(hc.fin[:0], "client finished", preClient, 12)
	if fin.Type != wire.TypeFinished || !bytesEqual(fin.Body, want) {
		return errors.New("tls: bad client Finished on resumption")
	}
	return nil
}

func sendTicket(hc *hsConn, cfg *Config, st *session.State, now time.Time, rnd io.Reader) error {
	k := cfg.Tickets.IssuingKey(now)
	hint := cfg.TicketHint
	if hint == 0 {
		hint = 2 * time.Hour
	}
	// The message prefix is constant per (key, hint) — sealed tickets
	// have one fixed length — and the ticket is sealed directly into the
	// outgoing buffer, so the abbreviated flight's serialization costs no
	// allocations at all.
	hc.mbuf = append(hc.mbuf[:0], nstPrefix(k, hint)...)
	var err error
	hc.mbuf, err = k.AppendSeal(hc.mbuf, st, rnd)
	if err != nil {
		return err
	}
	return hc.writeRaw(hc.mbuf)
}

// nstPrefixes caches the NewSessionTicket message prefix per issuing key
// and hint (see wire.AppendNSTPrefix). A plain mutex-guarded map rather
// than sync.Map: struct keys would be boxed on every Load.
var nstPrefixes struct {
	mu sync.RWMutex
	m  map[nstPrefixKey][]byte
}

type nstPrefixKey struct {
	k    *ticket.STEK
	hint time.Duration
}

func nstPrefix(k *ticket.STEK, hint time.Duration) []byte {
	key := nstPrefixKey{k: k, hint: hint}
	nstPrefixes.mu.RLock()
	b, ok := nstPrefixes.m[key]
	nstPrefixes.mu.RUnlock()
	if ok {
		return b
	}
	b = wire.AppendNSTPrefix(nil, hint, k.SealedLen())
	nstPrefixes.mu.Lock()
	if nstPrefixes.m == nil || len(nstPrefixes.m) >= maxPremasterEntries {
		nstPrefixes.m = make(map[nstPrefixKey][]byte, 16)
	}
	nstPrefixes.m[key] = b
	nstPrefixes.mu.Unlock()
	return b
}

// srvPM caches premasters per (epoch private value, client public). The
// outer maps are keyed by the policy-reused private values' pointers —
// stable for a whole epoch — and the inner map by the raw public bytes
// (string-keyed, so lookups convert without allocating). Bounded by
// wholesale clearing, like the keyex epoch cache.
var srvPM struct {
	mu sync.RWMutex
	ec map[*ecdh.PrivateKey]map[string][]byte
	dh map[*big.Int]map[string][]byte
	n  int
}

const maxPremasterEntries = 4096

func srvPremasterECDHE(priv *ecdh.PrivateKey, pub []byte) []byte {
	srvPM.mu.RLock()
	pm := srvPM.ec[priv][string(pub)]
	srvPM.mu.RUnlock()
	if pm != nil {
		telemetry.Global().Counter("wall/tlsserver/premaster_hit").Inc()
	}
	return pm
}

func srvPremasterPutECDHE(priv *ecdh.PrivateKey, pub, pm []byte) {
	srvPM.mu.Lock()
	if srvPM.n >= maxPremasterEntries {
		srvPM.ec, srvPM.dh, srvPM.n = nil, nil, 0
	}
	if srvPM.ec == nil {
		srvPM.ec = make(map[*ecdh.PrivateKey]map[string][]byte)
	}
	inner := srvPM.ec[priv]
	if inner == nil {
		inner = make(map[string][]byte, 1)
		srvPM.ec[priv] = inner
	}
	if _, ok := inner[string(pub)]; !ok {
		inner[string(pub)] = append([]byte(nil), pm...)
		srvPM.n++
	}
	srvPM.mu.Unlock()
}

func srvPremasterDHE(priv *big.Int, pub []byte) []byte {
	srvPM.mu.RLock()
	pm := srvPM.dh[priv][string(pub)]
	srvPM.mu.RUnlock()
	if pm != nil {
		telemetry.Global().Counter("wall/tlsserver/premaster_hit").Inc()
	}
	return pm
}

func srvPremasterPutDHE(priv *big.Int, pub, pm []byte) {
	srvPM.mu.Lock()
	if srvPM.n >= maxPremasterEntries {
		srvPM.ec, srvPM.dh, srvPM.n = nil, nil, 0
	}
	if srvPM.dh == nil {
		srvPM.dh = make(map[*big.Int]map[string][]byte)
	}
	inner := srvPM.dh[priv]
	if inner == nil {
		inner = make(map[string][]byte, 1)
		srvPM.dh[priv] = inner
	}
	if _, ok := inner[string(pub)]; !ok {
		inner[string(pub)] = append([]byte(nil), pm...)
		srvPM.n++
	}
	srvPM.mu.Unlock()
}

func finishServer(hc *hsConn, kb []byte) error {
	preFinished := hc.transcript()
	if err := hc.rc.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	if err := hc.rc.ArmWrite(kb[16:32], kb[36:40]); err != nil {
		return err
	}
	fin := wire.Msg{Type: wire.TypeFinished, Body: hc.ex.AppendPRF(hc.fin[:0], "server finished", preFinished, 12)}
	return hc.writeMsg(&fin)
}

// certMsgCache memoizes the marshaled Certificate handshake message per
// certificate pointer. The chain never changes after pki builds it, so
// the bytes are identical on every full handshake that serves it.
var certMsgCache sync.Map // *pki.Certificate -> []byte

func certMsgBytes(crt *pki.Certificate) []byte {
	if v, ok := certMsgCache.Load(crt); ok {
		return v.([]byte)
	}
	b := wire.MarshalCertificate(crt.Chain).Marshal()
	certMsgCache.Store(crt, b)
	return b
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
