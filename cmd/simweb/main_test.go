package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// TestMetricsSmoke drives simweb's -metrics mount end to end: a real TCP
// handshake against a terminator that counts into the served registry,
// then /healthz and /metrics (both formats) over that registry.
func TestMetricsSmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	world, err := population.Build(population.Options{
		ListSize: 200,
		Seed:     1,
		Clock:    simclock.System(),
		Start:    time.Now(),
	})
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	// Deterministically pick a served domain, as simweb -domain would.
	var domains []string
	for d, info := range world.Domains {
		if info != nil && len(info.Terms) > 0 {
			domains = append(domains, d)
		}
	}
	if len(domains) == 0 {
		t.Fatal("no served domains in the world")
	}
	sort.Strings(domains)
	domain := domains[0]
	cfg := world.Domains[domain].Terms[0].Config
	cfg.Telemetry = tlsserver.NewCounters(reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		// One-shot accept: the test makes a single handshake.
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_ = tlsserver.Serve(c, cfg)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial terminator: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := tlsclient.Handshake(conn, &tlsclient.Config{
		ServerName:  domain,
		Suites:      []uint16{wire.SuiteECDHE, wire.SuiteDHE, wire.SuiteRSA},
		OfferTicket: true,
		Clock:       world.Clock,
		Roots:       world.Roots,
	}); err != nil {
		t.Fatalf("handshake against %s: %v", domain, err)
	}

	hts := httptest.NewServer(metricsHandler(reg))
	defer hts.Close()
	get := func(path string) (string, http.Header) {
		t.Helper()
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body), resp.Header
	}

	if body, _ := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz answered %q", body)
	}
	// The terminator served one full handshake: one key-exchange value,
	// fresh or epoch-reused, counted on its side.
	body, _ := get("/metrics?format=json")
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if kex := snap.Counters["keyex/fresh_keys"] + snap.Counters["keyex/reuse_lookups"]; kex != 1 {
		t.Errorf("terminator counted %d key exchanges for one handshake, want 1: %v", kex, snap.Counters)
	}

	body, hdr := get("/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE tls_") {
		t.Errorf("/metrics is not Prometheus text exposition:\n%.300s", body)
	}
}
