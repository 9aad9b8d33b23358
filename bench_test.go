// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (§3-§6), plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark regenerates its table/figure from a
// shared measurement campaign and prints the rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation while timing the analysis pipeline.
// Shape assertions (who wins, rough factors) are enforced here as well, at
// a larger scale than the unit tests use.
package tlsshortcuts_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsshortcuts/internal/attacker"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/scanner"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsclient"
)

// ---- shared campaign ----

var (
	benchOnce sync.Once
	benchDS   *study.Dataset
	benchErr  error
)

const (
	benchListSize = 1000
	benchDays     = 44
	benchSeed     = 3
)

func benchDataset(b *testing.B) *study.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		fmt.Printf("[bench setup] running %d-domain, %d-day campaign (one-time)...\n",
			benchListSize, benchDays)
		start := time.Now()
		benchDS, benchErr = study.Run(study.Options{
			ListSize: benchListSize, Days: benchDays, Seed: benchSeed, Workers: 16,
		})
		fmt.Printf("[bench setup] campaign done in %v\n", time.Since(start).Round(time.Second))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

var printedSections sync.Map

func printOnce(section, text string) {
	if _, loaded := printedSections.LoadOrStore(section, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// benchSection times one report section's render from a report built
// before the timed loop, and prints its rows once.
func benchSection(b *testing.B, name string, f func(r *study.Report) string) string {
	rep := study.BuildReport(benchDataset(b))
	b.ResetTimer()
	b.ReportAllocs()
	var out string
	for i := 0; i < b.N; i++ {
		out = f(rep)
	}
	b.StopTimer()
	printOnce(name, out)
	return out
}

// ---- Table 1 ----

func BenchmarkTable1Support(b *testing.B) {
	out := benchSection(b, "table1", (*study.Report).Table1)
	ds := benchDataset(b)
	// Shape: ECDHE support > DHE support; STEK repeats are near-universal
	// among issuers.
	dsup := float64(ds.DHESnapshot.Support) / float64(ds.DHESnapshot.Trusted)
	esup := float64(ds.ECDHESnapshot.Support) / float64(ds.ECDHESnapshot.Trusted)
	if esup <= dsup {
		b.Errorf("shape: ECDHE support %.2f should exceed DHE support %.2f", esup, dsup)
	}
	if !strings.Contains(out, "Session Tickets") {
		b.Error("Table 1 missing ticket section")
	}
}

// ---- Figures 1-2 ----

func BenchmarkFigure1SessionIDLifetime(b *testing.B) {
	out := benchSection(b, "fig1", (*study.Report).Figure1)
	if !strings.Contains(out, "resumed @1s") {
		b.Error("figure 1 malformed")
	}
}

func BenchmarkFigure2TicketLifetime(b *testing.B) {
	out := benchSection(b, "fig2", (*study.Report).Figure2)
	if !strings.Contains(out, "lifetime hint") {
		b.Error("figure 2 missing hint series")
	}
}

// ---- Figures 3-5, Tables 2-4 ----

func BenchmarkFigure3STEKLifetime(b *testing.B) {
	benchSection(b, "fig3", (*study.Report).Figure3)
	ds := benchDataset(b)
	rep := study.BuildReport(ds)
	pop := ds.TrustedCore
	tr := rep.Tracker("stek")
	at7 := float64(tr.CountAtLeast(pop, 7)) / float64(len(pop))
	at30 := float64(tr.CountAtLeast(pop, 30)) / float64(len(pop))
	if at7 < 0.10 || at7 > 0.40 {
		b.Errorf("shape: STEK >=7d fraction %.2f (paper 0.22)", at7)
	}
	if at30 < 0.03 || at30 > 0.25 {
		b.Errorf("shape: STEK >=30d fraction %.2f (paper 0.10)", at30)
	}
}

func BenchmarkFigure4STEKByRank(b *testing.B) {
	out := benchSection(b, "fig4", (*study.Report).Figure4)
	if !strings.Contains(out, "Top 100 (scaled)") {
		b.Error("figure 4 missing tiers")
	}
}

func BenchmarkTable2TopSTEKReuse(b *testing.B) {
	out := benchSection(b, "table2", (*study.Report).Table2)
	// The famous never-rotators must appear.
	for _, d := range []string{"yahoo.com", "pinterest.com"} {
		if !strings.Contains(out, d) {
			b.Errorf("table 2 missing %s", d)
		}
	}
}

func BenchmarkFigure5KEXReuse(b *testing.B) {
	benchSection(b, "fig5", (*study.Report).Figure5)
	ds := benchDataset(b)
	rep := study.BuildReport(ds)
	pop := ds.TrustedCore
	d1 := rep.Tracker("dhe").CountAtLeast(pop, 1)
	e1 := rep.Tracker("ecdhe").CountAtLeast(pop, 1)
	if e1 <= d1 {
		b.Errorf("shape: ECDHE >=1d reuse (%d) should exceed DHE (%d)", e1, d1)
	}
	stek7 := rep.Tracker("stek").CountAtLeast(pop, 7)
	kex7 := rep.Tracker("dhe").CountAtLeast(pop, 7) + rep.Tracker("ecdhe").CountAtLeast(pop, 7)
	if stek7 <= kex7 {
		b.Errorf("shape: STEK >=7d (%d) should dominate KEX >=7d (%d)", stek7, kex7)
	}
}

func BenchmarkTable3TopDHEReuse(b *testing.B) {
	out := benchSection(b, "table3", (*study.Report).Table3)
	if !strings.Contains(out, "netflix.com") {
		b.Error("table 3 missing netflix.com")
	}
}

func BenchmarkTable4TopECDHEReuse(b *testing.B) {
	out := benchSection(b, "table4", (*study.Report).Table4)
	if !strings.Contains(out, "whatsapp.com") {
		b.Error("table 4 missing whatsapp.com")
	}
}

// ---- Tables 5-7 ----

func BenchmarkTable5SessionCacheGroups(b *testing.B) {
	out := benchSection(b, "table5", (*study.Report).Table5)
	if !strings.Contains(out, "cloudflare") {
		b.Error("table 5 missing cloudflare cache groups")
	}
}

func BenchmarkTable6STEKGroups(b *testing.B) {
	out := benchSection(b, "table6", (*study.Report).Table6)
	ds := benchDataset(b)
	var largest []string
	for _, g := range ds.STEKGroups {
		if len(g) > len(largest) {
			largest = g
		}
	}
	cf := 0
	for _, d := range largest {
		if ds.Operators[d] == "cloudflare" {
			cf++
		}
	}
	if float64(cf) < 0.9*float64(len(largest)) {
		b.Error("shape: largest STEK group should be CloudFlare's")
	}
	_ = out
}

func BenchmarkTable7DHGroups(b *testing.B) {
	out := benchSection(b, "table7", (*study.Report).Table7)
	if !strings.Contains(out, "singletons") {
		b.Error("table 7 missing stats")
	}
}

// ---- Figures 6-8 ----

func BenchmarkFigure6STEKTreemap(b *testing.B) {
	benchSection(b, "fig6", (*study.Report).Figure6)
}

func BenchmarkFigure7CacheAndDHTreemaps(b *testing.B) {
	benchSection(b, "fig7", (*study.Report).Figure7)
}

func BenchmarkFigure8CombinedWindows(b *testing.B) {
	benchSection(b, "fig8", (*study.Report).Figure8)
	ds := benchDataset(b)
	c := study.BuildReport(ds).Classification
	f24, f7, f30 := c.Frac(c.Over24h), c.Frac(c.Over7d), c.Frac(c.Over30d)
	if !(f24 >= f7 && f7 >= f30) {
		b.Error("shape: exceedance fractions must be monotone")
	}
	if f24 < 0.20 || f24 > 0.60 {
		b.Errorf("shape: >=24h fraction %.2f (paper 0.38)", f24)
	}
	if f30 < 0.03 || f30 > 0.25 {
		b.Errorf("shape: >=30d fraction %.2f (paper 0.10)", f30)
	}
}

// ---- §7.2 target analysis ----

func BenchmarkTargetAnalysisGoogle(b *testing.B) {
	world, err := population.Build(population.Options{ListSize: 1500, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	clock := world.Clock.(*simclock.Manual)
	var victim string
	for name, d := range world.Domains {
		if d.Operator == "google" {
			victim = name
			break
		}
	}
	conn, err := world.Net.Dial(victim)
	if err != nil {
		b.Fatal(err)
	}
	tap := attacker.NewTap(conn)
	if _, err := tlsclient.Handshake(tap, &tlsclient.Config{
		ServerName: victim, Clock: clock, OfferTicket: true,
		AppData: []byte("GET / HTTP/1.1\r\nCookie: secret\r\n\r\n"),
	}); err != nil {
		b.Fatal(err)
	}
	conn.Close()
	rec, err := attacker.Parse(tap.Conversation())
	if err != nil {
		b.Fatal(err)
	}
	stolen := world.Domains[victim].Terms[0].Tickets.ActiveKeys(clock.Now())

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		master, err := rec.MasterFromSTEK(stolen...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Decrypt(master); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	google := 0
	for _, d := range world.Domains {
		if d.Operator == "google" {
			google++
		}
	}
	printOnce("google", fmt.Sprintf(
		"§7.2 target analysis: one stolen STEK set decrypts connections to all %d Google domains (≈%d at Top-1M scale)",
		google, int(float64(google)/world.ScaleFactor)))
}

// ---- Ablations ----

// BenchmarkAblationTicketFormats: STEK-ID extraction across the three wire
// formats the paper encountered (16-byte RFC 5077 names, mbedTLS 4-byte
// names, SChannel wrapped GUIDs).
func BenchmarkAblationTicketFormats(b *testing.B) {
	st := testSessionState()
	for _, f := range []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel} {
		b.Run(f.String(), func(b *testing.B) {
			k := ticket.Derive([]byte("bench"), f)
			t1, err := k.Seal(st, zeroReader{})
			if err != nil {
				b.Fatal(err)
			}
			t2, err := k.Seal(st, zeroReader{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if id := ticket.DetectKeyID(t1, t2); len(id) == 0 {
					b.Fatal("no stable key ID")
				}
			}
		})
	}
}

// BenchmarkAblationSpanVsRun compares the paper's first/last-seen span
// metric against the naive consecutive-days run metric on the campaign
// data: the run metric systematically undercounts long-lived secrets
// because of A-record jitter and balancer non-affinity.
func BenchmarkAblationSpanVsRun(b *testing.B) {
	ds := benchDataset(b)
	tr := study.BuildReport(ds).Tracker("stek")
	pop := ds.TrustedCore
	b.ResetTimer()
	var spans7, runs7 int
	for i := 0; i < b.N; i++ {
		spans7, runs7 = 0, 0
		for _, d := range pop {
			if tr.MaxSpanDays(d) >= 7 {
				spans7++
			}
			if tr.MaxRunDays(d) >= 7 {
				runs7++
			}
		}
	}
	b.StopTimer()
	if runs7 > spans7 {
		b.Errorf("run metric (%d) cannot exceed span metric (%d)", runs7, spans7)
	}
	printOnce("ablation-span", fmt.Sprintf(
		"Ablation span-vs-run: >=7d STEKs — span metric %d domains, consecutive-run metric %d (undercount %.0f%%)",
		spans7, runs7, 100*(1-float64(runs7)/float64(spans7))))
}

// BenchmarkAblationGroupSampling compares cross-domain cache-group recall
// at the paper's 5+5 candidate budget versus a leaner 2+2 and a richer
// 10+10 budget.
func BenchmarkAblationGroupSampling(b *testing.B) {
	world, err := population.Build(population.Options{ListSize: 600, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	clock := world.Clock.(*simclock.Manual)
	scan := &scanner.Scanner{Dialer: world.Net, Roots: world.Roots, Clock: clock, Workers: 16}
	targets := world.TrustedCoreDomains()

	grouped := func(uf *scanner.UnionFind) int {
		n := 0
		for _, g := range uf.Sets() {
			if len(g) > 1 {
				n += len(g)
			}
		}
		return n
	}
	var recall [3]int
	budgets := []int{2, 5, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, budget := range budgets {
			uf, _ := scan.CrossDomainGroups(targets, world.Net, budget, budget)
			recall[j] = grouped(uf)
		}
	}
	b.StopTimer()
	if recall[0] > recall[1] || recall[1] > recall[2] {
		b.Errorf("recall must grow with budget: %v", recall)
	}
	printOnce("ablation-sampling", fmt.Sprintf(
		"Ablation group sampling: domains discovered in shared caches — budget 2+2: %d, 5+5 (paper): %d, 10+10: %d",
		recall[0], recall[1], recall[2]))
}

// BenchmarkAblationProbeSchedule compares the paper's fixed 5-minute
// lifetime polls against coarser 30-minute polls: fewer connections, less
// resolution.
func BenchmarkAblationProbeSchedule(b *testing.B) {
	world, err := population.Build(population.Options{ListSize: 400, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	clock := world.Clock.(*simclock.Manual)
	start := clock.Now()
	scan := &scanner.Scanner{Dialer: world.Net, Roots: world.Roots, Clock: clock, Workers: 16}
	targets := world.TrustedCoreDomains()[:100]

	run := func(poll time.Duration) (resumed int, meanDelay time.Duration) {
		clock.Set(start)
		res := scan.LifetimeProbe(targets, false, poll, 24*time.Hour)
		var sum time.Duration
		for _, r := range res {
			if r.ResumedAt1s {
				resumed++
				sum += r.MaxDelay
			}
		}
		if resumed > 0 {
			meanDelay = sum / time.Duration(resumed)
		}
		return
	}
	b.ResetTimer()
	var n5, n30 int
	var d5, d30 time.Duration
	for i := 0; i < b.N; i++ {
		n5, d5 = run(5 * time.Minute)
		n30, d30 = run(30 * time.Minute)
	}
	b.StopTimer()
	if n5 == 0 {
		b.Fatal("probe found no resuming domains")
	}
	printOnce("ablation-schedule", fmt.Sprintf(
		"Ablation probe schedule: 5-min polls — %d resuming, mean lifetime %v; 30-min polls — %d resuming, mean lifetime %v (coarser polls underestimate the lifetime but use 6x fewer connections)",
		n5, d5.Round(time.Minute), n30, d30.Round(time.Minute)))
}

// BenchmarkAblationRotationWindow measures how the STEK acceptance window
// (issue period × accepted previous keys) sets the vulnerability window:
// Google's 14h+1 versus a hard daily rotation versus a static key.
func BenchmarkAblationRotationWindow(b *testing.B) {
	base := simclock.Epoch
	st := testSessionState()
	configs := []struct {
		name string
		mgr  ticket.Manager
	}{
		{"static", ticket.NewStatic([]byte("s"), ticket.FormatRFC5077)},
		{"24h+0", &ticket.Rotating{Seed: []byte("s"), Base: base, Period: 24 * time.Hour, Format: ticket.FormatRFC5077}},
		{"14h+1", &ticket.Rotating{Seed: []byte("s"), Base: base, Period: 14 * time.Hour, AcceptPrevious: 1, Format: ticket.FormatRFC5077}},
	}
	var lines []string
	for _, cfg := range configs {
		tkt, err := cfg.mgr.IssuingKey(base).Seal(st, zeroReader{})
		if err != nil {
			b.Fatal(err)
		}
		// Find how long the ticket remains openable.
		accepted := time.Duration(0)
		for d := time.Hour; d <= 80*24*time.Hour; d += time.Hour {
			if cfg.mgr.LookupKey(tkt, base.Add(d)) == nil {
				break
			}
			accepted = d
		}
		lines = append(lines, fmt.Sprintf("%s: window >= %v", cfg.name, accepted))
	}
	b.ReportAllocs()
	mgr := configs[2].mgr
	tkt, _ := mgr.IssuingKey(base).Seal(st, zeroReader{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mgr.LookupKey(tkt, base.Add(20*time.Hour)) == nil {
			b.Fatal("lookup failed inside window")
		}
	}
	b.StopTimer()
	printOnce("ablation-rotation", "Ablation rotation windows: "+strings.Join(lines, "; "))
}

// ---- helpers ----

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x5A
	}
	return len(p), nil
}

func testSessionState() *session.State {
	st := &session.State{Version: 0x0303, Suite: 0xC02F, CreatedAt: simclock.Epoch}
	for i := range st.MasterSecret {
		st.MasterSecret[i] = byte(i)
	}
	return st
}

// BenchmarkExtensionTLS13Outlook projects the measured exposure onto TLS
// 1.3 draft-15 resumption semantics (§2.4/§8.1): psk_dhe_ke would collapse
// the ticket-driven windows for 1-RTT data, while 0-RTT early data keeps
// today's exposure.
func BenchmarkExtensionTLS13Outlook(b *testing.B) {
	ds := benchDataset(b)
	rep := study.BuildReport(ds)
	b.ResetTimer()
	b.ReportAllocs()
	var out string
	for i := 0; i < b.N; i++ {
		out = rep.TLS13Outlook()
	}
	b.StopTimer()
	now := rep.Classification
	dhe := rep.TLS13Classification(false)
	withEarly := rep.TLS13Classification(true)
	if dhe.Over24h > now.Over24h {
		b.Error("psk_dhe_ke cannot increase exposure")
	}
	if withEarly.Over24h != now.Over24h {
		b.Error("0-RTT early data should preserve today's ticket exposure")
	}
	printOnce("tls13", out+fmt.Sprintf(
		"  Figure-8 >=24h count: today %d -> psk_dhe_ke (no 0-RTT) %d -> with 0-RTT %d",
		now.Over24h, dhe.Over24h, withEarly.Over24h))
}
