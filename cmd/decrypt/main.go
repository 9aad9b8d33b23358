// Command decrypt performs retrospective decryption of a recorded TLS
// connection from a capture file (written with the attacker package's
// SaveFile, e.g. by examples or tests), given stolen secret state:
//
//	decrypt -capture victim.tlscap                 # parse-only summary
//	decrypt -capture victim.tlscap -master <hex48> # with a master secret
//	decrypt -capture victim.tlscap -stek <hex64>   # with a stolen STEK
//	                                               # (name16|aes16|mac32)
//	decrypt -demo                                  # self-contained demo
//
// It is the operational face of the paper's threat model: collection first,
// keys later.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"tlsshortcuts/internal/attacker"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

func main() {
	var (
		capturePath = flag.String("capture", "", "capture file to decrypt")
		masterHex   = flag.String("master", "", "48-byte master secret (hex)")
		stekHex     = flag.String("stek", "", "stolen RFC 5077 STEK: name(16)|aes(16)|mac(32), hex")
		demo        = flag.Bool("demo", false, "record a demo capture, then decrypt it")
		out         = flag.String("out", "", "with -demo: also save the capture here")
	)
	flag.Parse()

	if *demo {
		runDemo(*out)
		return
	}
	if *capturePath == "" {
		log.Fatal("need -capture (or -demo)")
	}
	conv, err := attacker.LoadFile(*capturePath)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := attacker.Parse(conv)
	if err != nil {
		log.Fatal(err)
	}
	summarize(rec)

	var master []byte
	switch {
	case *masterHex != "":
		master, err = hex.DecodeString(*masterHex)
		if err != nil || len(master) != 48 {
			log.Fatalf("bad -master: need 48 hex bytes")
		}
	case *stekHex != "":
		raw, err := hex.DecodeString(*stekHex)
		if err != nil || len(raw) != 64 {
			log.Fatalf("bad -stek: need 64 hex bytes (name16|aes16|mac32)")
		}
		k := &ticket.STEK{Format: ticket.FormatRFC5077, Name: raw[:16]}
		copy(k.AESKey[:], raw[16:32])
		copy(k.MACKey[:], raw[32:64])
		master, err = rec.MasterFromSTEK(k)
		if err != nil {
			log.Fatalf("STEK recovery failed: %v", err)
		}
		fmt.Println("master secret recovered from the stolen STEK")
	default:
		fmt.Println("(no secret supplied; stopping after the summary)")
		return
	}
	decryptAndPrint(rec, master)
}

func summarize(rec *attacker.Recovered) {
	fmt.Printf("capture summary:\n")
	fmt.Printf("  suite: %s\n", wire.SuiteName(rec.Suite))
	fmt.Printf("  resumed connection: %v\n", rec.Resumed)
	fmt.Printf("  session ID: %x\n", rec.SessionID)
	fmt.Printf("  client offered ticket: %v bytes\n", len(rec.OfferedTicket))
	fmt.Printf("  server issued ticket: %v bytes", len(rec.IssuedTicket))
	if len(rec.IssuedTicket) > 0 {
		fmt.Printf(" (STEK id %x)", ticket.ExtractKeyID(rec.IssuedTicket))
	}
	fmt.Println()
	fmt.Printf("  encrypted records captured: %d\n", len(rec.Encrypted))
}

func decryptAndPrint(rec *attacker.Recovered, master []byte) {
	msgs, err := rec.Decrypt(master)
	if err != nil {
		log.Fatalf("decryption failed: %v", err)
	}
	for _, m := range msgs {
		dir := "server->client"
		if m.FromClient {
			dir = "client->server"
		}
		fmt.Printf("  [%s] %q\n", dir, m.Plain)
	}
	if len(msgs) == 0 {
		fmt.Println("  (no application data in the capture)")
	}
}

// runDemo records one victim connection against a throwaway server with a
// static STEK, saves it if requested, and decrypts it with the "stolen"
// key.
func runDemo(outPath string) {
	clock := simclock.NewManual(simclock.Epoch)
	root, err := pki.NewRootCA("Demo Root", pki.ECDSAP256, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"demo.example"}, pki.ECDSAP256,
		simclock.Epoch.AddDate(0, -1, 0), simclock.Epoch.AddDate(1, 0, 0), rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	mgr := ticket.NewStatic([]byte("demo-stek"), ticket.FormatRFC5077)
	scfg := &tlsserver.Config{Clock: clock, DefaultCert: leaf, Tickets: mgr}
	cli, srv := net.Pipe()
	go tlsserver.Serve(srv, scfg)
	tap := attacker.NewTap(cli)
	if _, err := tlsclient.Handshake(tap, &tlsclient.Config{
		ServerName: "demo.example", Clock: clock, OfferTicket: true,
		AppData: []byte("GET /secret HTTP/1.1\r\nAuthorization: Bearer demo-token\r\n\r\n"),
	}); err != nil {
		log.Fatal(err)
	}
	cli.Close()
	conv := tap.Conversation()
	if outPath != "" {
		if err := conv.SaveFile(outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("capture written to %s\n", outPath)
	}
	rec, err := attacker.Parse(conv)
	if err != nil {
		log.Fatal(err)
	}
	summarize(rec)
	clock.Advance(30 * 24 * time.Hour)
	fmt.Println("\n30 days later, the STEK leaks:")
	master, err := rec.MasterFromSTEK(mgr.ActiveKeys(clock.Now())...)
	if err != nil {
		log.Fatal(err)
	}
	decryptAndPrint(rec, master)
	k := mgr.ActiveKeys(clock.Now())[0]
	fmt.Printf("\n(replay with: decrypt -capture <file> -stek %x%x%x)\n",
		k.Name, k.AESKey, k.MACKey)
	os.Exit(0)
}
