// Command simweb exposes one simulated domain's SSL terminator on a real
// TCP port, so cmd/tlsscan (or any client speaking this repository's TLS
// 1.2 subset) can poke it interactively:
//
//	simweb -domain yahoo.com -listen 127.0.0.1:4433 &
//	tlsscan -addr 127.0.0.1:4433 -sni yahoo.com -conns 3
//
// With -metrics the terminator's telemetry registry is mounted on the
// obsv server studyrun -obsv uses (/metrics, /healthz, /debug/pprof/,
// ...), so a long-lived simweb can be scraped and profiled:
//
//	simweb -domain yahoo.com -metrics 127.0.0.1:9091 &
//	curl http://127.0.0.1:9091/metrics
//
// The terminator keeps its configured shortcuts — session cache, tickets,
// STEK policy, KEX reuse — so resumption and reuse behave exactly as in the
// virtual study, except on the wall clock.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsserver"
)

func main() {
	var (
		domain   = flag.String("domain", "yahoo.com", "simulated domain whose terminator to expose")
		listen   = flag.String("listen", "127.0.0.1:4433", "listen address")
		listSize = flag.Int("listsize", 2000, "sim world size")
		seed     = flag.Int64("seed", 1, "sim world seed")
		metrics  = flag.String("metrics", "", "serve /metrics and /healthz over the terminator's registry on this address")
	)
	flag.Parse()

	// The registry is installed before the world is built so every
	// terminator-side collector (session cache, ticket/STEK, keyex
	// reuse) reports into it.
	var reg *telemetry.Registry
	if *metrics != "" {
		reg = telemetry.NewRegistry()
		defer telemetry.SetGlobal(reg)()
	}

	w, err := population.Build(population.Options{
		ListSize: *listSize,
		Seed:     *seed,
		Clock:    simclock.System(),
		Start:    time.Now(),
	})
	if err != nil {
		log.Fatalf("building world: %v", err)
	}
	info := w.Domains[*domain]
	if info == nil || len(info.Terms) == 0 {
		log.Fatalf("domain %q not served in this world", *domain)
	}
	cfg := info.Terms[0].Config

	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		log.Printf("metrics on http://%s/metrics", mln.Addr())
		go func() {
			if err := http.Serve(mln, metricsHandler(reg)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("serving %s (operator %s) on %s — scan with: tlsscan -addr %s -sni %s",
		*domain, info.Operator, *listen, *listen, *domain)
	log.Printf("behavior: tickets=%v cache=%v stek-period=%v dhe=%v ecdhe=%v",
		info.Terms[0].Behavior.Tickets, info.Terms[0].Behavior.CacheLifetime,
		info.Terms[0].Behavior.STEK.Period, info.Terms[0].Behavior.DHE.Mode,
		info.Terms[0].Behavior.ECDHE.Mode)
	serveLoop(ln, cfg)
}

// metricsHandler mounts the observability plane's /metrics and /healthz
// over reg. Kept separate from main so the smoke test can drive it with
// the obsv client against a live terminator.
func metricsHandler(reg *telemetry.Registry) http.Handler {
	return obsv.NewServer(obsv.Config{Registry: reg})
}

// serveLoop accepts terminator connections forever.
func serveLoop(ln net.Listener, cfg *tlsserver.Config) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		go func(c net.Conn) {
			if err := tlsserver.Serve(c, cfg); err != nil {
				log.Printf("connection error: %v", err)
			}
		}(conn)
	}
}
