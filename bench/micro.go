package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/prf"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/scanner"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/traffic"
	"tlsshortcuts/internal/vulnwindow"
	"tlsshortcuts/internal/wire"
)

// microResult is one microbenchmark's cost per unit of work.
type microResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// microBench times one layer through its public functions. fn runs b.N
// iterations and returns the units of work they did (b.N unless an
// iteration covers many domains or visits), so results are per unit.
type microBench struct {
	name string
	fn   func(fx *fixture, b *testing.B) int
}

// allocFree names the microbenchmarks whose steady state allocates
// nothing. Their allocation counts are not reported: they read zero on
// every run.
var allocFree = map[string]bool{
	"simnet.pipe_rtt": true, "record.rtt_1k": true, "wire.parse_server_flight": true,
	"wire.append_client_hello": true, "prf.key_schedule": true, "ticket.detect_key_id": true,
}

// benchHost is the single server the handshake microbenchmarks dial.
const benchHost = "bench.example"

// fixture is the state the microbenchmarks share: one TLS server on a
// simulated network, a small population, and its saved campaign.
type fixture struct {
	clock  *simclock.Manual
	rng    *drbg.Reader
	root   *pki.RootCA
	leaf   *pki.Certificate
	roots  *pki.RootStore
	net    *simnet.Net
	world  *population.World
	shards []*study.Dataset
	merged *study.Dataset
	dsPath string
}

// newFixture builds the shared state. The population behind the scanner,
// traffic and study microbenchmarks has listSize domains.
func newFixture(listSize int, work string) (*fixture, error) {
	fx := &fixture{clock: simclock.NewManual(simclock.Epoch), rng: drbg.NewString("bench", "micro")}
	var err error
	if fx.root, err = pki.NewRootCA("bench root", pki.ECDSAP256, fx.rng); err != nil {
		return nil, err
	}
	nb, na := simclock.Epoch.AddDate(-1, 0, 0), simclock.Epoch.AddDate(2, 0, 0)
	if fx.leaf, err = fx.root.IssueLeaf([]string{benchHost}, pki.ECDSAP256, nb, na, fx.rng); err != nil {
		return nil, err
	}
	fx.roots = pki.NewRootStore(fx.root)
	// Zero KEX policies: a fresh server value per handshake.
	srv := &tlsserver.Config{
		Clock:       fx.clock,
		DefaultCert: fx.leaf,
		Tickets:     ticket.NewStatic([]byte("bench"), ticket.FormatRFC5077),
		TicketHint:  24 * time.Hour,
		Cache:       session.NewCache(24 * time.Hour),
		RandSeed:    []byte("bench|server"),
	}
	fx.net = simnet.New()
	fx.net.Register(benchHost, 64500, []string{"192.0.2.1"}, &simnet.Endpoint{Config: srv})

	o := study.Options{ListSize: listSize, Days: 4, Seed: 1, Workers: workers}
	for i := 0; i < analysisShards; i++ {
		o.Shard = &study.ShardSpec{Index: i, Count: analysisShards}
		ds, err := study.Run(o)
		if err != nil {
			return nil, err
		}
		fx.shards = append(fx.shards, ds)
	}
	if fx.merged, err = study.MergeDatasets(fx.shards...); err != nil {
		return nil, err
	}
	fx.dsPath = filepath.Join(work, "micro-dataset.json")
	if err := fx.merged.Save(fx.dsPath); err != nil {
		return nil, err
	}
	fx.world, err = population.Build(population.Options{ListSize: listSize, Seed: 1})
	return fx, err
}

// handshake dials the bench server and runs one client handshake the way
// the scanner configures it.
func (fx *fixture) handshake(b *testing.B, c *tlsclient.Capture, cfg tlsclient.Config) {
	conn, err := fx.net.Dial(benchHost)
	if err != nil {
		b.Fatal(err)
	}
	cfg.ServerName, cfg.Clock, cfg.Roots, cfg.ReuseKex, cfg.Rand = benchHost, fx.clock, fx.roots, true, fx.rng
	err = tlsclient.HandshakeInto(c, conn, &cfg)
	conn.Close()
	if err != nil {
		b.Fatal(err)
	}
}

func resumeBench(viaTicket bool) func(*fixture, *testing.B) int {
	return func(fx *fixture, b *testing.B) int {
		var c tlsclient.Capture
		fx.handshake(b, &c, tlsclient.Config{OfferTicket: viaTicket})
		sess := c.Session
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.handshake(b, &c, tlsclient.Config{Resume: sess, ResumeViaTicket: viaTicket, OfferTicket: viaTicket})
			if !c.Resumed {
				b.Fatal("server did not resume")
			}
		}
		return b.N
	}
}

func (fx *fixture) scanner() *scanner.Scanner {
	return &scanner.Scanner{Dialer: fx.world.Net, Roots: fx.world.Roots, Clock: fx.world.Clock, Workers: workers, Seed: []byte("bench|scan")}
}

// echo answers every 64-byte message on c until it closes.
func echo(c net.Conn) {
	buf := make([]byte, 64)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// micros lists the layer microbenchmarks bottom-up: the simulated
// network, record and wire layers, the key schedule and key exchange,
// certificates, whole handshakes, tickets and session stores, the
// traffic engine, each scanner probe kind, and the offline study path.
var micros = []microBench{
	{"simnet.pipe_rtt", func(fx *fixture, b *testing.B) int {
		a, z := simnet.NewBufferedPipe()
		defer a.Close()
		go echo(z)
		buf := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			if _, err := a.Write(buf); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(a, buf); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"simnet.dial", func(fx *fixture, b *testing.B) int {
		for i := 0; i < b.N; i++ {
			c, err := fx.net.Dial(benchHost)
			if err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
		return b.N
	}},
	{"record.rtt_1k", func(fx *fixture, b *testing.B) int {
		a, z := simnet.NewBufferedPipe()
		ca, cz := record.NewConn(a), record.NewConn(z)
		key, salt := make([]byte, 16), make([]byte, 4)
		for _, err := range []error{ca.ArmWrite(key, salt), ca.ArmRead(key, salt), cz.ArmWrite(key, salt), cz.ArmRead(key, salt)} {
			if err != nil {
				b.Fatal(err)
			}
		}
		go func() {
			defer z.Close()
			for {
				rec, err := cz.ReadRecord()
				if err != nil {
					return
				}
				if err := cz.WriteRecord(rec.Type, rec.Payload); err != nil {
					return
				}
			}
		}()
		defer a.Close()
		msg := make([]byte, 1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ca.WriteRecord(record.TypeAppData, msg); err != nil {
				b.Fatal(err)
			}
			if _, err := ca.ReadRecord(); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"wire.parse_server_flight", func(fx *fixture, b *testing.B) int {
		sh := (&wire.ServerHello{Suite: wire.SuiteECDHE, SessionID: make([]byte, 32), TicketAck: true}).Marshal().Body
		cert := wire.MarshalCertificate(fx.leaf.Chain).Body
		ske := (&wire.SKE{Kex: wire.KexECDHE, Public: make([]byte, 65), Sig: make([]byte, 72)}).Marshal().Body
		var h wire.ServerHello
		var s wire.SKE
		var chain [][]byte
		for i := 0; i < b.N; i++ {
			var err error
			if err = wire.ParseServerHelloInto(&h, sh); err == nil {
				if chain, err = wire.ParseCertificateInto(chain[:0], cert); err == nil {
					err = wire.ParseSKEInto(&s, wire.KexECDHE, ske)
				}
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"wire.append_client_hello", func(fx *fixture, b *testing.B) int {
		ch := wire.ClientHello{Suites: []uint16{wire.SuiteECDHE, wire.SuiteDHE}, ServerName: benchHost, OfferTicket: true}
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = ch.AppendTo(buf[:0])
		}
		return b.N
	}},
	{"prf.key_schedule", func(fx *fixture, b *testing.B) int {
		premaster, seed, transcript := make([]byte, 32), make([]byte, 64), make([]byte, 32)
		var e prf.Expander
		var master, kb, fin [64]byte
		for i := 0; i < b.N; i++ {
			e.SetSecret(premaster)
			m := e.AppendPRF(master[:0], "master secret", seed, 48)
			e.SetSecret(m)
			e.AppendPRF(kb[:0], "key expansion", seed, 40)
			e.AppendPRF(fin[:0], "client finished", transcript, 12)
			e.AppendPRF(fin[:0], "server finished", transcript, 12)
		}
		return b.N
	}},
	{"keyex.ecdhe_fresh", func(fx *fixture, b *testing.B) int {
		for i := 0; i < b.N; i++ {
			if _, _, err := keyex.ECDHEKeyPub(&keyex.Policy{}, simclock.Epoch, fx.rng); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"keyex.dhe_fresh", func(fx *fixture, b *testing.B) int {
		g := ffdh.TestGroup512()
		for i := 0; i < b.N; i++ {
			if _, _, err := keyex.DHEKey(g, &keyex.Policy{}, simclock.Epoch, fx.rng); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"keyex.client_premaster_scalar", func(fx *fixture, b *testing.B) int {
		// A reuse-policy server value publishes its scalar on first
		// derivation, so the client's base-point shortcut applies.
		p := &keyex.Policy{Mode: keyex.Reuse, Period: time.Hour, Base: simclock.Epoch, Seed: []byte("bench|scalar")}
		_, pub, err := keyex.ECDHEKeyPub(p, simclock.Epoch, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if keyex.ClientPremasterFromScalar(pub) == nil {
				b.Fatal("no published scalar")
			}
		}
		return b.N
	}},
	{"pki.verify_chain", func(fx *fixture, b *testing.B) int {
		// A fresh store per iteration: the store memoizes verdicts, and
		// this prices the first verification of a chain.
		for i := 0; i < b.N; i++ {
			if !pki.NewRootStore(fx.root).Verify(fx.leaf.Chain, benchHost, simclock.Epoch) {
				b.Fatal("chain not trusted")
			}
		}
		return b.N
	}},
	{"handshake.full_ecdhe", func(fx *fixture, b *testing.B) int {
		var c tlsclient.Capture
		for i := 0; i < b.N; i++ {
			fx.handshake(b, &c, tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}})
		}
		return b.N
	}},
	{"handshake.full_dhe", func(fx *fixture, b *testing.B) int {
		var c tlsclient.Capture
		for i := 0; i < b.N; i++ {
			fx.handshake(b, &c, tlsclient.Config{Suites: []uint16{wire.SuiteDHE}})
		}
		return b.N
	}},
	{"handshake.kex_only", func(fx *fixture, b *testing.B) int {
		var c tlsclient.Capture
		for i := 0; i < b.N; i++ {
			fx.handshake(b, &c, tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}, KexOnly: true})
		}
		return b.N
	}},
	{"handshake.resume_id", resumeBench(false)},
	{"handshake.resume_ticket", resumeBench(true)},
	{"ticket.seal.rfc5077", sealBench(ticket.FormatRFC5077)},
	{"ticket.seal.mbedtls", sealBench(ticket.FormatMbedTLS)},
	{"ticket.seal.schannel", sealBench(ticket.FormatSChannel)},
	{"ticket.open.rfc5077", openBench(ticket.FormatRFC5077)},
	{"ticket.open.mbedtls", openBench(ticket.FormatMbedTLS)},
	{"ticket.open.schannel", openBench(ticket.FormatSChannel)},
	{"ticket.detect_key_id", func(fx *fixture, b *testing.B) int {
		k := ticket.Derive([]byte("bench"), ticket.FormatMbedTLS)
		st := benchState()
		t1, err1 := k.Seal(st, fx.rng)
		t2, err2 := k.Seal(st, fx.rng)
		if err := errors.Join(err1, err2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ticket.DetectKeyID(t1, t2) == nil {
				b.Fatal("no key ID")
			}
		}
		return b.N
	}},
	{"session.bounded_put_get", func(fx *fixture, b *testing.B) int {
		// Twice the capacity in distinct IDs, so puts evict and half the
		// gets miss, as a busy browser store does.
		const capacity = 1024
		c := session.NewBoundedCache(time.Hour, capacity)
		ids := make([][]byte, 2*capacity)
		for i := range ids {
			ids[i] = []byte(fmt.Sprintf("session-%06d", i))
		}
		st := benchState()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(ids[i%len(ids)], st, simclock.Epoch)
			c.Get(ids[(i*7)%len(ids)], simclock.Epoch)
		}
		return b.N
	}},
	{"traffic.run_day_per_visit", func(fx *fixture, b *testing.B) int {
		clock := fx.world.Clock.(*simclock.Manual)
		start := clock.Now()
		defer clock.Set(start)
		eng, err := traffic.NewEngine(fx.world, traffic.Options{Users: len(fx.world.Domains) / 2, Seed: 1, Workers: workers}, telemetry.NewRegistry())
		if err != nil {
			b.Fatal(err)
		}
		visits := 0
		b.ResetTimer()
		for day := 0; day < b.N; day++ {
			clock.Set(start.Add(time.Duration(day) * 24 * time.Hour))
			v, _ := eng.RunDay(day)
			visits += v
		}
		return visits
	}},
	{"scanner.daily_ticket_per_domain", func(fx *fixture, b *testing.B) int {
		s, all := fx.scanner(), fx.world.AllDomains()
		var buf []scanner.Observation
		for i := 0; i < b.N; i++ {
			buf = s.DailyInto(buf, all, i, nil, true)
		}
		return b.N * len(all)
	}},
	{"scanner.daily_kex_per_domain", func(fx *fixture, b *testing.B) int {
		s, core := fx.scanner(), fx.world.TrustedCoreDomains()
		var buf []scanner.Observation
		for i := 0; i < b.N; i++ {
			buf = s.DailyInto(buf, core, i, []uint16{wire.SuiteDHE}, false)
			buf = s.DailyInto(buf, core, i, []uint16{wire.SuiteECDHE}, false)
		}
		return b.N * len(core)
	}},
	{"scanner.lifetime_per_domain", func(fx *fixture, b *testing.B) int {
		s, core := fx.scanner(), fx.world.TrustedCoreDomains()
		for i := 0; i < b.N; i++ {
			s.LifetimeProbe(core, false, 15*time.Minute, 30*time.Hour)
			s.LifetimeProbe(core, true, time.Hour, 36*time.Hour)
		}
		return b.N * len(core)
	}},
	{"scanner.cross_domain_per_domain", func(fx *fixture, b *testing.B) int {
		s, core := fx.scanner(), fx.world.TrustedCoreDomains()
		for i := 0; i < b.N; i++ {
			s.CrossDomainGroupsIn(core, core, fx.world.Net, 5, 5)
		}
		return b.N * len(core)
	}},
	{"study.load", func(fx *fixture, b *testing.B) int {
		for i := 0; i < b.N; i++ {
			if _, err := study.Load(fx.dsPath); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"study.merge", func(fx *fixture, b *testing.B) int {
		for i := 0; i < b.N; i++ {
			if _, err := study.MergeDatasets(fx.shards...); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}},
	{"study.build_report", func(fx *fixture, b *testing.B) int {
		for i := 0; i < b.N; i++ {
			// BuildReport memoizes by dataset pointer; a copy builds afresh.
			ds := *fx.merged
			study.BuildReport(&ds)
		}
		return b.N
	}},
	{"vulnwindow.combine", func(fx *fixture, b *testing.B) int {
		exps := study.BuildReport(fx.merged).Exposures
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vulnwindow.Combine(exps)
		}
		return b.N
	}},
}

func benchState() *session.State {
	st := &session.State{Version: wire.VersionTLS12, Suite: wire.SuiteECDHE, CreatedAt: simclock.Epoch}
	for i := range st.MasterSecret {
		st.MasterSecret[i] = byte(i)
	}
	return st
}

func sealBench(f ticket.Format) func(*fixture, *testing.B) int {
	return func(fx *fixture, b *testing.B) int {
		k, st := ticket.Derive([]byte("bench"), f), benchState()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = k.AppendSeal(buf[:0], st, fx.rng); err != nil {
				b.Fatal(err)
			}
		}
		return b.N
	}
}

func openBench(f ticket.Format) func(*fixture, *testing.B) int {
	return func(fx *fixture, b *testing.B) int {
		k := ticket.Derive([]byte("bench"), f)
		tkt, err := k.Seal(benchState(), fx.rng)
		if err != nil {
			b.Fatal(err)
		}
		var st session.State
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !k.OpenInto(&st, tkt) {
				b.Fatal("ticket did not open")
			}
		}
		return b.N
	}
}

// runMicros runs every microbenchmark for about benchtime each, over a
// population a third the size of the workloads'.
func runMicros(sc scale, benchtime time.Duration, work string) (map[string]microResult, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	fx, err := newFixture(max(sc.ListSize/3, 50), work)
	if err != nil {
		return nil, err
	}
	out := make(map[string]microResult, len(micros))
	for _, mb := range micros {
		var units int
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			units = mb.fn(fx, b)
		})
		if r.N == 0 || units == 0 {
			return nil, fmt.Errorf("microbenchmark %s failed", mb.name)
		}
		out[mb.name] = microResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(units),
			AllocsPerOp: float64(r.MemAllocs) / float64(units),
		}
	}
	return out, nil
}
