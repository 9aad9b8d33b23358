// Command tlsscan is the zgrab-analog single-target scanner: it performs
// one or more TLS handshakes against a simulated domain (or a real TCP
// endpoint speaking this repository's TLS 1.2 subset, e.g. cmd/simweb) and
// prints what the study records: trust status, suite, server key-exchange
// value, ticket and STEK identifier, and resumption behavior.
//
// Usage:
//
//	tlsscan -domain yahoo.com                 # scan inside a fresh sim world
//	tlsscan -domain yahoo.com -conns 5        # reuse detection
//	tlsscan -domain yahoo.com -resume ticket  # resumption check
//	tlsscan -addr 127.0.0.1:4433 -sni x.example  # scan a simweb endpoint
//	tlsscan -demo                             # self-check, exits non-zero on failure
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/wire"
)

type scanOutput struct {
	Domain       string `json:"domain"`
	OK           bool   `json:"ok"`
	Error        string `json:"error,omitempty"`
	ErrClass     string `json:"error_class,omitempty"`
	Trusted      bool   `json:"trusted"`
	CipherSuite  string `json:"cipher_suite,omitempty"`
	KexAlg       string `json:"kex,omitempty"`
	KEXValue     string `json:"kex_value,omitempty"`
	SessionIDSet bool   `json:"session_id_set"`
	TicketIssued bool   `json:"ticket_issued"`
	STEKID       string `json:"stek_id,omitempty"`
	LifetimeHint string `json:"lifetime_hint,omitempty"`
	Resumed      bool   `json:"resumed"`
	ResumedVia   string `json:"resumed_via,omitempty"`
}

func main() {
	var (
		domain   = flag.String("domain", "yahoo.com", "simulated domain to scan")
		addr     = flag.String("addr", "", "real TCP address (host:port) instead of the sim")
		sni      = flag.String("sni", "", "SNI for -addr scans (default: -domain)")
		listSize = flag.Int("listsize", 2000, "sim world size")
		seed     = flag.Int64("seed", 1, "sim world seed")
		conns    = flag.Int("conns", 1, "connections in quick succession")
		suiteStr = flag.String("suites", "ecdhe,dhe,rsa", "offer order (csv of ecdhe,dhe,rsa)")
		resume   = flag.String("resume", "", "after the first handshake, resume via 'id' or 'ticket'")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-connection read/write deadline (0 disables)")
		demo     = flag.Bool("demo", false, "run a self-contained scan self-check and exit")
		verbose  = flag.Bool("v", false, "per-connection telemetry on stderr, plus a final metrics snapshot")
	)
	flag.Parse()

	if *demo {
		runDemo()
		return
	}

	suites, err := parseSuites(*suiteStr)
	if err != nil {
		log.Fatal(err)
	}

	// With -v a registry counts the scan: the tlsscan/ counters below,
	// the client's, and inside the sim the world's dials and terminator
	// counters. Real -addr scans see only this process's client side.
	var reg *telemetry.Registry
	if *verbose {
		reg = telemetry.NewRegistry()
	}

	var dial func() (net.Conn, error)
	var roots *pki.RootStore
	clock := simclock.NewManual(simclock.Epoch)
	serverName := *domain
	if *addr != "" {
		if *sni != "" {
			serverName = *sni
		}
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", *addr, 5*time.Second) }
	} else {
		w, err := population.Build(population.Options{ListSize: *listSize, Seed: *seed})
		if err != nil {
			log.Fatalf("building sim world: %v", err)
		}
		if !w.Net.HasDomain(*domain) {
			log.Fatalf("domain %q not in the simulated world (try google.com, yahoo.com, netflix.com, site-000001.example ...)", *domain)
		}
		clock = w.Clock.(*simclock.Manual)
		roots = w.Roots
		if reg != nil {
			w.Net.SetTelemetry(reg)
		}
		dial = func() (net.Conn, error) { return w.Net.Dial(*domain) }
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	client := tlsclient.NewCounters(reg)
	failed := false
	var firstSession *tlsclient.Session
	for i := 0; i < *conns; i++ {
		cfg := &tlsclient.Config{
			ServerName:  serverName,
			Suites:      suites,
			OfferTicket: true,
			Clock:       clock,
			Roots:       roots,
			Telemetry:   client,
		}
		if *resume != "" && firstSession != nil {
			cfg.Resume = firstSession
			cfg.ResumeViaTicket = *resume == "ticket"
		}
		connStart := time.Now()
		conn, err := dial()
		if err != nil {
			out := scanOutput{Domain: serverName, Error: err.Error(), ErrClass: string(faults.ClassDial)}
			_ = enc.Encode(out)
			reg.Counter("tlsscan/errors/" + string(faults.ClassDial)).Inc()
			if *verbose {
				fmt.Fprintf(os.Stderr, "conn %d/%d: dial failed in %v: %v\n", i+1, *conns, time.Since(connStart).Round(time.Microsecond), err)
			}
			os.Exit(1)
		}
		if *timeout > 0 {
			_ = conn.SetDeadline(time.Now().Add(*timeout))
		}
		cap, err := tlsclient.Handshake(conn, cfg)
		conn.Close()
		elapsed := time.Since(connStart)
		out := render(serverName, cap, err)
		if err != nil {
			// A failed handshake must fail the scan: exiting 0 here once
			// made `tlsscan && ...` pipelines treat dead targets as scanned.
			failed = true
			reg.Counter("tlsscan/errors/" + out.ErrClass).Inc()
		} else {
			reg.Counter("tlsscan/handshakes_ok").Inc()
		}
		reg.Histogram("wall/tlsscan/handshake").Observe(elapsed)
		if *verbose {
			outcome := "ok"
			if err != nil {
				outcome = "FAILED class=" + out.ErrClass
			} else if out.Resumed {
				outcome = "ok resumed via " + out.ResumedVia
			}
			fmt.Fprintf(os.Stderr, "conn %d/%d: %s in %v (suite=%s kex=%s ticket=%v)\n",
				i+1, *conns, outcome, elapsed.Round(time.Microsecond), out.CipherSuite, out.KexAlg, out.TicketIssued)
		}
		if err == nil && firstSession == nil {
			firstSession = cap.Session
		}
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, "telemetry:")
		fmt.Fprint(os.Stderr, reg.Snapshot().Render())
	}
	if failed {
		os.Exit(1)
	}
}

// runDemo scans a famous never-rotator inside a small fresh world and
// checks the three behaviors the study depends on: a stable STEK ID
// across two connections, ticket resumption, and session-ID resumption.
func runDemo() {
	w, err := population.Build(population.Options{ListSize: 200, Seed: 1})
	if err != nil {
		log.Fatalf("demo: building world: %v", err)
	}
	clock := w.Clock.(*simclock.Manual)
	const target = "yahoo.com"
	scan := func(cfg *tlsclient.Config) *tlsclient.Capture {
		cfg.ServerName = target
		cfg.Clock = clock
		cfg.Roots = w.Roots
		conn, err := w.Net.Dial(target)
		if err != nil {
			log.Fatalf("demo: dial: %v", err)
		}
		defer conn.Close()
		cap, err := tlsclient.Handshake(conn, cfg)
		if err != nil {
			log.Fatalf("demo: handshake with %s: %v", target, err)
		}
		return cap
	}

	c1 := scan(&tlsclient.Config{OfferTicket: true})
	c2 := scan(&tlsclient.Config{OfferTicket: true})
	if !c1.Trusted || !c1.TicketIssued || !c2.TicketIssued {
		log.Fatalf("demo: expected a trusted ticket-issuing scan, got trusted=%v issued=%v/%v",
			c1.Trusted, c1.TicketIssued, c2.TicketIssued)
	}
	if len(c1.STEKID) == 0 || hex.EncodeToString(c1.STEKID) != hex.EncodeToString(c2.STEKID) {
		log.Fatalf("demo: STEK ID not stable across connections: %x vs %x", c1.STEKID, c2.STEKID)
	}
	fmt.Printf("demo: %s scan ok — suite %s, STEK id %x\n", target, wire.SuiteName(c1.CipherSuite), c1.STEKID)

	rt := scan(&tlsclient.Config{Resume: c1.Session, ResumeViaTicket: true})
	if !rt.Resumed || !rt.ResumedViaTicket {
		log.Fatal("demo: ticket resumption failed")
	}
	fmt.Println("demo: ticket resumption ok")

	ri := scan(&tlsclient.Config{Resume: c1.Session})
	if !ri.Resumed || ri.ResumedViaTicket {
		log.Fatal("demo: session-ID resumption failed")
	}
	fmt.Println("demo: session-ID resumption ok")
	fmt.Println("demo: PASS")
}

func render(domain string, cap *tlsclient.Capture, err error) scanOutput {
	out := scanOutput{Domain: domain, OK: err == nil}
	if err != nil {
		out.Error = err.Error()
		out.ErrClass = string(faults.Classify(err))
	}
	if cap == nil {
		return out
	}
	out.Trusted = cap.Trusted
	if cap.CipherSuite != 0 {
		out.CipherSuite = wire.SuiteName(cap.CipherSuite)
	}
	if cap.KexAlg != 0 {
		out.KexAlg = cap.KexAlg.String()
		out.KEXValue = hex.EncodeToString(cap.ServerKEXValue)
	}
	out.SessionIDSet = len(cap.SessionID) > 0
	out.TicketIssued = cap.TicketIssued
	out.STEKID = hex.EncodeToString(cap.STEKID)
	if cap.LifetimeHint > 0 {
		out.LifetimeHint = cap.LifetimeHint.String()
	}
	out.Resumed = cap.Resumed
	if cap.Resumed {
		out.ResumedVia = "id"
		if cap.ResumedViaTicket {
			out.ResumedVia = "ticket"
		}
	}
	return out
}

func parseSuites(s string) ([]uint16, error) {
	var out []uint16
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "ecdhe":
			out = append(out, wire.SuiteECDHE)
		case "dhe":
			out = append(out, wire.SuiteDHE)
		case "rsa":
			out = append(out, wire.SuiteRSA)
		case "":
		default:
			return nil, fmt.Errorf("unknown suite %q", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no suites in %q", s)
	}
	return out, nil
}
