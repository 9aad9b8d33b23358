package population

import (
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/ticket"
)

var testOpts = Options{ListSize: 300, Seed: 3}

// buildAt builds the test world with GOMAXPROCS set to procs, which
// fixes how many workers issue its leaf certificates.
func buildAt(t *testing.T, procs int) *World {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w, err := Build(testOpts)
	if err != nil {
		t.Fatalf("Build at GOMAXPROCS=%d: %v", procs, err)
	}
	return w
}

// termView is everything about a terminator that the seeded pass
// decides: all of it but the certificate.
type termView struct {
	Behavior     Behavior
	RandSeed     string
	DHESeed      string
	ECDHESeed    string
	STEK         string
	Hint         time.Duration
	DisableDHE   bool
	DisableECDHE bool
}

type domainView struct {
	Operator   string
	Rank       int
	Trusted    bool
	Terms      []termView
	CacheMates string // the domains sharing this domain's session cache
}

// stekKeys fingerprints a ticket manager by the keys it issues at a few
// instants, which fixes its seed, format and rotation.
func stekKeys(m ticket.Manager, start time.Time) string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	for _, d := range []time.Duration{0, 36 * time.Hour, 40 * 24 * time.Hour} {
		k := m.IssuingKey(start.Add(d), nil)
		fmt.Fprintf(&b, "%d:%x:%x:%x:%v;", k.Format, k.Name, k.AESKey, k.MACKey, k.WeakIV)
	}
	return b.String()
}

// view reduces a world to what must not depend on the build's schedule.
func view(w *World) map[string]domainView {
	mates := map[*session.Cache][]string{}
	for name, d := range w.Domains {
		if c := d.Terms[0].Config.Cache; c != nil {
			mates[c] = append(mates[c], name)
		}
	}
	out := make(map[string]domainView, len(w.Domains))
	for name, d := range w.Domains {
		dv := domainView{Operator: d.Operator, Rank: d.Rank, Trusted: d.Trusted}
		if c := d.Terms[0].Config.Cache; c != nil {
			m := slices.Clone(mates[c])
			slices.Sort(m)
			dv.CacheMates = strings.Join(m, ",")
		}
		for _, term := range d.Terms {
			cfg := term.Config
			tv := termView{
				Behavior:     term.Behavior,
				RandSeed:     hex.EncodeToString(cfg.RandSeed),
				STEK:         stekKeys(cfg.Tickets, simclock.Epoch),
				Hint:         cfg.TicketHint,
				DisableDHE:   cfg.DisableDHE,
				DisableECDHE: cfg.DisableECDHE,
			}
			if cfg.DHEPolicy != nil {
				tv.DHESeed = hex.EncodeToString(cfg.DHEPolicy.Seed)
			}
			if cfg.ECDHEPolicy != nil {
				tv.ECDHESeed = hex.EncodeToString(cfg.ECDHEPolicy.Seed)
			}
			dv.Terms = append(dv.Terms, tv)
		}
		out[name] = dv
	}
	return out
}

// TestBuildIndependentOfGOMAXPROCS builds the world with one leaf-issuing
// worker and with eight: everything the seeded pass decides must agree,
// and only certificate bytes (drawn from crypto/rand) may differ.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	one, eight := buildAt(t, 1), buildAt(t, 8)
	if len(one.Domains) != testOpts.ListSize {
		t.Fatalf("built %d domains, want %d", len(one.Domains), testOpts.ListSize)
	}
	if got, want := eight.Net.Domains(), one.Net.Domains(); !slices.Equal(got, want) {
		t.Fatalf("registered domains differ: %d vs %d names", len(got), len(want))
	}
	v1, v8 := view(one), view(eight)
	for name, d1 := range v1 {
		d8, ok := v8[name]
		if !ok {
			t.Fatalf("%s missing from the GOMAXPROCS=8 world", name)
		}
		if !reflect.DeepEqual(d1, d8) {
			t.Fatalf("%s differs across GOMAXPROCS:\n 1: %+v\n 8: %+v", name, d1, d8)
		}
	}
	shared := 0
	for _, d := range v1 {
		if strings.Contains(d.CacheMates, ",") {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two domains share a session cache; the comparison above proves nothing about cache groups")
	}
}

// TestBuildIssuesEveryLeaf checks, for both worker counts, that every
// terminator serves a certificate naming its domain, and that the sim
// root store trusts a domain's chain exactly when the domain is Trusted.
func TestBuildIssuesEveryLeaf(t *testing.T) {
	for _, procs := range []int{1, 8} {
		w := buildAt(t, procs)
		untrusted := 0
		for name, d := range w.Domains {
			for k, term := range d.Terms {
				cert := term.Config.DefaultCert
				if cert == nil {
					t.Fatalf("GOMAXPROCS=%d: %s backend %d has no certificate", procs, name, k)
				}
				leaf, err := x509.ParseCertificate(cert.Chain[0])
				if err == nil {
					err = leaf.VerifyHostname(name)
				}
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %s backend %d: %v", procs, name, k, err)
				}
				if got := w.Roots.Verify(cert.Chain, name, simclock.Epoch); got != d.Trusted {
					t.Fatalf("GOMAXPROCS=%d: %s backend %d: Verify = %v, Trusted = %v", procs, name, k, got, d.Trusted)
				}
			}
			if !d.Trusted {
				untrusted++
			}
		}
		if untrusted == 0 {
			t.Fatalf("GOMAXPROCS=%d: no untrusted domain; the Verify check above proves nothing about rejection", procs)
		}
	}
}
