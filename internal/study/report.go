package study

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/vulnwindow"
)

// Tracker answers span/run questions for one mechanism's secret
// observations (the paper's first-seen/last-seen span metric versus the
// naive consecutive-run metric). Construction precomputes both metrics
// per domain, scanning each domain's contiguous rows of the sorted table
// — the report layer queries the same domain once per table, figure,
// and exposure pass.
type Tracker struct {
	maxSpan map[string]int
	maxRun  map[string]int
}

func newTracker(spans Spans) *Tracker {
	domains := 0
	for i := range spans {
		if i == 0 || spans[i].Domain != spans[i-1].Domain {
			domains++
		}
	}
	t := &Tracker{maxSpan: make(map[string]int, domains), maxRun: make(map[string]int, domains)}
	for i := 0; i < len(spans); {
		domain, span, run := spans[i].Domain, -1, -1
		for ; i < len(spans) && spans[i].Domain == domain; i++ {
			span = max(span, spanOf(spans[i].Days))
			run = max(run, runOf(spans[i].Days))
		}
		t.maxSpan[domain], t.maxRun[domain] = span, run
	}
	return t
}

// spanOf is last-seen minus first-seen day (-1 for an empty mask).
func spanOf(b uint64) int {
	if b == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(b) - bits.TrailingZeros64(b)
}

// runOf is the longest consecutive-day run minus one (-1 for an empty
// mask): x &= x<<1 clears the tail of every run, so the iteration count
// is the longest run length.
func runOf(b uint64) int {
	run := 0
	for x := b; x != 0; x &= x << 1 {
		run++
	}
	return run - 1
}

// MaxSpanDays is the longest last-seen minus first-seen span, in days,
// over the domain's secrets (-1 if the domain was never observed).
func (t *Tracker) MaxSpanDays(domain string) int {
	if v, ok := t.maxSpan[domain]; ok {
		return v
	}
	return -1
}

// MaxRunDays is the longest consecutive-day run minus one, over the
// domain's secrets. Always <= MaxSpanDays.
func (t *Tracker) MaxRunDays(domain string) int {
	if v, ok := t.maxRun[domain]; ok {
		return v
	}
	return -1
}

// CountAtLeast counts domains in pop whose max span is at least days.
func (t *Tracker) CountAtLeast(pop []string, days int) int {
	n := 0
	for _, d := range pop {
		if t.MaxSpanDays(d) >= days {
			n++
		}
	}
	return n
}

// Report is the analysis layer: every paper table/figure regenerates from
// it, plus the §6 exposure classification.
type Report struct {
	DS             *Dataset
	Exposures      []vulnwindow.Exposure
	Classification vulnwindow.Classification

	trackers     map[string]*Tracker
	ticketAccept map[string]time.Duration // measured acceptance tail
	cacheLife    map[string]time.Duration // measured session-ID lifetime
	core         []string                 // consistent core (see ConsistentCore)
}

// BuildReport computes exposures and windows from a dataset. Every call
// builds afresh; rendering reads r.DS at render time.
func BuildReport(ds *Dataset) *Report {
	r := &Report{
		DS: ds,
		trackers: map[string]*Tracker{
			"stek":  newTracker(ds.STEKSpans),
			"dhe":   newTracker(ds.DHESpans),
			"ecdhe": newTracker(ds.ECDHESpans),
		},
		ticketAccept: make(map[string]time.Duration),
		cacheLife:    make(map[string]time.Duration),
		core:         consistentCore(ds),
	}
	for _, pr := range ds.TicketLifetime {
		if pr.OK && pr.ResumedAt1s {
			d := pr.MaxDelay
			if d < time.Second {
				d = time.Second
			}
			r.ticketAccept[pr.Domain] = d
		}
	}
	for _, pr := range ds.IDLifetime {
		if pr.OK && pr.ResumedAt1s {
			d := pr.MaxDelay
			if d < time.Second {
				d = time.Second
			}
			r.cacheLife[pr.Domain] = d
		}
	}
	for _, domain := range r.core {
		n := 0
		if span := r.Tracker("stek").MaxSpanDays(domain); span >= 0 || r.ticketAccept[domain] > 0 {
			if span < 0 {
				span = 0
			}
			r.Exposures = append(r.Exposures, vulnwindow.Exposure{
				Domain: domain, Mechanism: vulnwindow.MechTicket,
				Window: vulnwindow.TicketWindow(span, r.ticketAccept[domain]),
			})
			n++
		}
		if life, ok := r.cacheLife[domain]; ok {
			r.Exposures = append(r.Exposures, vulnwindow.Exposure{
				Domain: domain, Mechanism: vulnwindow.MechCache,
				Window: vulnwindow.CacheWindow(life),
			})
			n++
		}
		for _, mech := range []vulnwindow.Mechanism{vulnwindow.MechDHE, vulnwindow.MechECDHE} {
			if span := r.Tracker(string(mech)).MaxSpanDays(domain); span >= 1 {
				r.Exposures = append(r.Exposures, vulnwindow.Exposure{
					Domain: domain, Mechanism: mech, Window: vulnwindow.KexWindow(span),
				})
				n++
			}
		}
		if n == 0 {
			// No shortcut observed: zero-width window, still classified.
			r.Exposures = append(r.Exposures, vulnwindow.Exposure{
				Domain: domain, Mechanism: vulnwindow.MechCache, Window: 0,
			})
		}
	}
	// Weak-crypto exposures: traffic decryptable without any compromise
	// event (cracked STEK, known-weak prime) is harmed for the full
	// observation, whatever the domain's rotation hygiene says.
	if ds.Crypt != nil {
		for _, domain := range r.core {
			if _, ok := ds.Crypt.Cracked[domain]; ok {
				r.Exposures = append(r.Exposures, vulnwindow.Exposure{
					Domain: domain, Mechanism: vulnwindow.MechWeakSTEK,
					Window: vulnwindow.WeakWindow(ds.Days),
				})
			}
			if _, ok := ds.Crypt.WeakPrime[domain]; ok {
				r.Exposures = append(r.Exposures, vulnwindow.Exposure{
					Domain: domain, Mechanism: vulnwindow.MechFFDHPrime,
					Window: vulnwindow.WeakWindow(ds.Days),
				})
			}
		}
	}
	r.Classification = vulnwindow.Classify(r.Exposures)
	return r
}

// consistentCore filters the trusted core down to the domains whose daily
// ticket scan succeeded on every campaign day — the paper's §3 denominator
// discipline: longevity numbers are computed over domains observed every
// scan day, not over whatever answered on a given day. On a fault-free
// run MissedDays is empty and the consistent core IS the trusted core.
func consistentCore(ds *Dataset) []string {
	if len(ds.MissedDays) == 0 {
		return ds.TrustedCore
	}
	out := make([]string, 0, len(ds.TrustedCore))
	for _, d := range ds.TrustedCore {
		if ds.MissedDays[d] == 0 {
			out = append(out, d)
		}
	}
	return out
}

// ConsistentCore returns the domains observed on every scan day — the
// population every span table, exceedance figure, and exposure
// classification is computed over.
func (r *Report) ConsistentCore() []string { return r.core }

// Tracker returns the named mechanism tracker ("stek", "dhe", "ecdhe").
func (r *Report) Tracker(kind string) *Tracker {
	t, ok := r.trackers[kind]
	if !ok {
		return &Tracker{}
	}
	return t
}

// TLS13Classification projects exposure onto TLS 1.3 draft resumption
// semantics (§8.1): psk_dhe_ke (earlyData=false) removes the
// ticket-driven retrospective windows; 0-RTT early data (earlyData=true)
// keeps today's exposure for the replayed data.
func (r *Report) TLS13Classification(earlyData bool) vulnwindow.Classification {
	if earlyData {
		return r.Classification
	}
	var exps []vulnwindow.Exposure
	for _, e := range r.Exposures {
		if e.Mechanism == vulnwindow.MechTicket {
			e.Window = 0
		}
		exps = append(exps, e)
	}
	return vulnwindow.Classify(exps)
}

// ---- rendering helpers ----

func pct(n, total int) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

type rankedRow struct {
	domain string
	op     string
	days   int
	rank   int
}

// topSpans lists domains by descending span (ties rank order), over the
// consistent core — a domain missing scan days cannot be credited with a
// continuous span.
func (r *Report) topSpans(kind string, limit int) []rankedRow {
	var rows []rankedRow
	for _, d := range r.core {
		if span := r.Tracker(kind).MaxSpanDays(d); span >= 1 {
			rows = append(rows, rankedRow{d, r.DS.Operators[d], span, r.DS.Ranks[d]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].days != rows[j].days {
			return rows[i].days > rows[j].days
		}
		return rows[i].rank < rows[j].rank
	})
	if len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

func renderRows(b *strings.Builder, rows []rankedRow) {
	for _, row := range rows {
		fmt.Fprintf(b, "  %-28s rank %-5d operator %-14s span %d days\n",
			row.domain, row.rank, row.op, row.days)
	}
}

// groupLabel is a group's majority operator.
func (r *Report) groupLabel(g []string) string {
	counts := make(map[string]int)
	for _, d := range g {
		counts[r.DS.Operators[d]]++
	}
	best, bestN := "mixed", 0
	for op, n := range counts {
		if n > bestN {
			best, bestN = op, n
		}
	}
	return best
}

func (r *Report) renderGroups(b *strings.Builder, groups [][]string, limit int) {
	for i, g := range groups {
		if i >= limit {
			fmt.Fprintf(b, "  ... %d more groups\n", len(groups)-limit)
			break
		}
		fmt.Fprintf(b, "  group %-2d %5d domains (%s of population)  operator: %s\n",
			i+1, len(g), pct(len(g), len(r.DS.TrustedCore)), r.groupLabel(g))
	}
}

// ---- tables ----

// Table1 is the shortcut-support census.
func (r *Report) Table1() string {
	b := &strings.Builder{}
	ds := r.DS
	fmt.Fprintf(b, "Table 1: crypto shortcut support (day 0, %d domains scanned)\n", ds.TicketSnapshot.Scanned)
	fmt.Fprintf(b, "  Browser trusted:     %d (%s)\n", ds.TicketSnapshot.Trusted, pct(ds.TicketSnapshot.Trusted, ds.TicketSnapshot.Scanned))
	fmt.Fprintf(b, "  Session Tickets:     %d (%s of trusted)\n", ds.TicketSnapshot.Support, pct(ds.TicketSnapshot.Support, ds.TicketSnapshot.Trusted))
	fmt.Fprintf(b, "  Ticket STEK repeat:  %d (%s of trusted)\n", ds.TicketSnapshot.Reuse2x, pct(ds.TicketSnapshot.Reuse2x, ds.TicketSnapshot.Trusted))
	resumed := len(r.cacheLife)
	fmt.Fprintf(b, "  Session ID cache:    %d (%s of trusted core)\n", resumed, pct(resumed, len(ds.TrustedCore)))
	fmt.Fprintf(b, "  DHE support:         %d (%s of trusted)\n", ds.DHESnapshot.Support, pct(ds.DHESnapshot.Support, ds.DHESnapshot.Trusted))
	fmt.Fprintf(b, "  DHE value repeat:    %d\n", ds.DHESnapshot.Reuse2x)
	fmt.Fprintf(b, "  ECDHE support:       %d (%s of trusted)\n", ds.ECDHESnapshot.Support, pct(ds.ECDHESnapshot.Support, ds.ECDHESnapshot.Trusted))
	fmt.Fprintf(b, "  ECDHE value repeat:  %d\n", ds.ECDHESnapshot.Reuse2x)
	if pf := ds.TicketSnapshot.PairFailed + ds.DHESnapshot.PairFailed + ds.ECDHESnapshot.PairFailed; pf > 0 {
		fmt.Fprintf(b, "  pairs excluded (2nd connection failed): ticket %d, dhe %d, ecdhe %d\n",
			ds.TicketSnapshot.PairFailed, ds.DHESnapshot.PairFailed, ds.ECDHESnapshot.PairFailed)
	}
	return b.String()
}

// Table2 ranks the longest-lived STEKs.
func (r *Report) Table2() string {
	b := &strings.Builder{}
	fmt.Fprintln(b, "Table 2: top domains by STEK lifetime (observed span)")
	renderRows(b, r.topSpans("stek", 20))
	return b.String()
}

// Table3 ranks DHE value reuse.
func (r *Report) Table3() string {
	b := &strings.Builder{}
	fmt.Fprintln(b, "Table 3: top domains by DHE key-exchange value reuse")
	renderRows(b, r.topSpans("dhe", 20))
	return b.String()
}

// Table4 ranks ECDHE value reuse.
func (r *Report) Table4() string {
	b := &strings.Builder{}
	fmt.Fprintln(b, "Table 4: top domains by ECDHE key-exchange value reuse")
	renderRows(b, r.topSpans("ecdhe", 20))
	return b.String()
}

// Table5 lists cross-domain session cache groups.
func (r *Report) Table5() string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "Table 5: shared session cache groups (5+5 probe budget): %d groups\n", len(r.DS.CacheGroups))
	r.renderGroups(b, r.DS.CacheGroups, 10)
	return b.String()
}

// Table6 lists shared-STEK groups.
func (r *Report) Table6() string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "Table 6: shared STEK groups: %d groups\n", len(r.DS.STEKGroups))
	r.renderGroups(b, r.DS.STEKGroups, 10)
	return b.String()
}

// Table7 lists shared DH value groups.
func (r *Report) Table7() string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "Table 7: shared DH value groups: %d groups, %d reused-value singletons\n",
		len(r.DS.DHGroups), r.DS.DHSingleton)
	r.renderGroups(b, r.DS.DHGroups, 10)
	return b.String()
}

// ---- figures ----

// Figure1 is the session-ID resumption lifetime distribution.
func (r *Report) Figure1() string {
	b := &strings.Builder{}
	ok, at1s := 0, 0
	buckets := []time.Duration{15 * time.Minute, time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}
	counts := make([]int, len(buckets))
	for _, pr := range r.DS.IDLifetime {
		if !pr.OK {
			continue
		}
		ok++
		if pr.ResumedAt1s {
			at1s++
			for i, th := range buckets {
				if pr.MaxDelay >= th {
					counts[i]++
				}
			}
		}
	}
	fmt.Fprintf(b, "Figure 1: session ID resumption lifetime (%d domains with session IDs)\n", ok)
	fmt.Fprintf(b, "  resumed @1s: %d (%s)\n", at1s, pct(at1s, ok))
	for i, th := range buckets {
		fmt.Fprintf(b, "  still resumable after %-6s %d (%s)\n", th, counts[i], pct(counts[i], ok))
	}
	return b.String()
}

// Figure2 is ticket acceptance lifetime versus the advertised hint.
func (r *Report) Figure2() string {
	b := &strings.Builder{}
	ok, at1s, hinted, beyond := 0, 0, 0, 0
	buckets := []time.Duration{6 * time.Hour, 18 * time.Hour, 24 * time.Hour, 30 * time.Hour}
	counts := make([]int, len(buckets))
	for _, pr := range r.DS.TicketLifetime {
		if !pr.OK {
			continue
		}
		ok++
		if pr.Hint > 0 {
			hinted++
			if pr.MaxDelay > pr.Hint {
				beyond++
			}
		}
		if pr.ResumedAt1s {
			at1s++
			for i, th := range buckets {
				if pr.MaxDelay >= th {
					counts[i]++
				}
			}
		}
	}
	fmt.Fprintf(b, "Figure 2: ticket acceptance lifetime (%d ticket domains)\n", ok)
	fmt.Fprintf(b, "  resumed @1s: %d (%s); lifetime hint advertised by %d, exceeded by %d\n",
		at1s, pct(at1s, ok), hinted, beyond)
	for i, th := range buckets {
		fmt.Fprintf(b, "  accepted after %-6s %d (%s)\n", th, counts[i], pct(counts[i], ok))
	}
	return b.String()
}

// Figure3 is the STEK lifetime exceedance curve.
func (r *Report) Figure3() string {
	b := &strings.Builder{}
	pop := r.core
	tr := r.Tracker("stek")
	fmt.Fprintf(b, "Figure 3: STEK observed lifetime over %d domains\n", len(pop))
	for _, d := range []int{1, 7, 14, 30} {
		n := tr.CountAtLeast(pop, d)
		fmt.Fprintf(b, "  span >= %2dd: %d (%s)\n", d, n, pct(n, len(pop)))
	}
	return b.String()
}

// Figure4 is STEK lifetime by list-rank tier.
func (r *Report) Figure4() string {
	b := &strings.Builder{}
	pop := r.core
	tr := r.Tracker("stek")
	n := len(pop)
	tiers := []struct {
		label string
		lo    int
		hi    int
	}{
		{"Top 100 (scaled)", 0, n / 10},
		{"Mid tier", n / 10, n / 2},
		{"Tail", n / 2, n},
	}
	fmt.Fprintln(b, "Figure 4: 7-day STEK reuse by list rank")
	for _, t := range tiers {
		if t.hi <= t.lo {
			continue
		}
		seg := pop[t.lo:t.hi]
		c := tr.CountAtLeast(seg, 7)
		fmt.Fprintf(b, "  %-18s %d/%d (%s)\n", t.label, c, len(seg), pct(c, len(seg)))
	}
	return b.String()
}

// Figure5 is key-exchange value reuse exceedance.
func (r *Report) Figure5() string {
	b := &strings.Builder{}
	pop := r.core
	fmt.Fprintf(b, "Figure 5: key-exchange value reuse over %d domains\n", len(pop))
	for _, kind := range []string{"dhe", "ecdhe"} {
		tr := r.Tracker(kind)
		fmt.Fprintf(b, "  %-6s >=1d: %d, >=7d: %d, >=30d: %d\n", strings.ToUpper(kind),
			tr.CountAtLeast(pop, 1), tr.CountAtLeast(pop, 7), tr.CountAtLeast(pop, 30))
	}
	return b.String()
}

// Figure6 is the STEK-group treemap (textual).
func (r *Report) Figure6() string {
	b := &strings.Builder{}
	fmt.Fprintln(b, "Figure 6: STEK sharing treemap (group share of population)")
	r.renderGroups(b, r.DS.STEKGroups, 8)
	return b.String()
}

// Figure7 is the cache- and DH-group treemaps (textual).
func (r *Report) Figure7() string {
	b := &strings.Builder{}
	fmt.Fprintln(b, "Figure 7a: session cache sharing treemap")
	r.renderGroups(b, r.DS.CacheGroups, 8)
	fmt.Fprintln(b, "Figure 7b: DH value sharing treemap")
	r.renderGroups(b, r.DS.DHGroups, 8)
	return b.String()
}

// Figure8 is the combined vulnerability-window classification.
func (r *Report) Figure8() string {
	b := &strings.Builder{}
	c := r.Classification
	fmt.Fprintf(b, "Figure 8: combined vulnerability windows (%d domains)\n", c.Total)
	fmt.Fprintf(b, "  window > 24h: %d (%s)\n", c.Over24h, pct(c.Over24h, c.Total))
	fmt.Fprintf(b, "  window > 7d:  %d (%s)\n", c.Over7d, pct(c.Over7d, c.Total))
	fmt.Fprintf(b, "  window > 30d: %d (%s)\n", c.Over30d, pct(c.Over30d, c.Total))
	byMech := make(map[vulnwindow.Mechanism]int)
	for _, e := range r.Exposures {
		if e.Window > 24*time.Hour {
			byMech[e.Mechanism]++
		}
	}
	fmt.Fprintf(b, "  >24h by mechanism: ticket %d, cache %d, dhe %d, ecdhe %d\n",
		byMech[vulnwindow.MechTicket], byMech[vulnwindow.MechCache],
		byMech[vulnwindow.MechDHE], byMech[vulnwindow.MechECDHE])
	return b.String()
}

// FailureTable renders the campaign's scan-failure taxonomy and the
// consistent-core denominator — the §3 discipline of computing longevity
// over domains observed on every scan day, made visible.
func (r *Report) FailureTable() string {
	b := &strings.Builder{}
	ds := r.DS
	fmt.Fprintln(b, "Scan robustness: failure taxonomy and consistent core")
	fmt.Fprintf(b, "  consistent core: %d of %d trusted domains observed on all %d days (%s)\n",
		len(r.core), len(ds.TrustedCore), ds.Days, pct(len(r.core), len(ds.TrustedCore)))
	if fp := ds.FaultPlan; fp != nil {
		fmt.Fprintf(b, "  fault plan: seed %d, refuse %.3f, reset %.3f, stall %.3f, flap %.3f, churn %.3f (<=%dd windows)\n",
			fp.Seed, fp.Refuse, fp.Reset, fp.Stall, fp.Flap, fp.Churn, fp.ChurnMaxDays)
	}
	if len(ds.Failures) == 0 && ds.XDStats == nil {
		fmt.Fprintln(b, "  no scan failures recorded")
		return b.String()
	}
	// Daily first-connection scans have a well-defined attempt count, so
	// those rows carry a rate; pair/lifetime rows are bare counts.
	attempts := map[string]int{
		"ticket": len(ds.Operators) * ds.Days,
		"dhe":    len(ds.TrustedCore) * ds.Days,
		"ecdhe":  len(ds.TrustedCore) * ds.Days,
	}
	// Column widths derive from the rows (not fixed guesses), so every
	// row stays aligned however long the scan and class names grow.
	wScan, wClass := 0, 0
	for _, f := range ds.Failures {
		if len(f.Scan) > wScan {
			wScan = len(f.Scan)
		}
		if len(f.Class) > wClass {
			wClass = len(f.Class)
		}
	}
	for _, f := range ds.Failures {
		if n := attempts[f.Scan]; n > 0 {
			fmt.Fprintf(b, "  %-*s %-*s %6d (%s of %d probes)\n", wScan, f.Scan, wClass, f.Class, f.Count, pct(f.Count, n), n)
		} else {
			fmt.Fprintf(b, "  %-*s %-*s %6d\n", wScan, f.Scan, wClass, f.Class, f.Count)
		}
	}
	if xd := ds.XDStats; xd != nil {
		fmt.Fprintf(b, "  cross-domain: %d probed, %d sessioned, %d init failed, %d probe connections failed\n",
			xd.Probed, xd.Sessioned, xd.InitFailed, xd.ProbeFailed)
	}
	return b.String()
}

// TelemetrySection renders a campaign telemetry snapshot for the end of
// the report: sorted keys, aligned columns, deterministic output for a
// given snapshot regardless of map iteration order. It is a package
// function rather than a Report method because telemetry is run
// instrumentation, not a measurement — it lives beside the Dataset, in
// a telemetry.Registry, never inside it.
func TelemetrySection(s *telemetry.Snapshot) string {
	b := &strings.Builder{}
	fmt.Fprintln(b, "Campaign telemetry (run instrumentation, not a measurement)")
	b.WriteString(s.Render())
	return b.String()
}

// TLS13Outlook projects today's classification onto TLS 1.3 draft-15
// resumption semantics (§8.1). It is a projection, not a measurement:
// nothing in the campaign speaks TLS 1.3.
func (r *Report) TLS13Outlook() string {
	b := &strings.Builder{}
	now := r.Classification
	dhe := r.TLS13Classification(false)
	early := r.TLS13Classification(true)
	fmt.Fprintln(b, "TLS 1.3 outlook (projection of today's classification onto draft-15 resumption semantics, not a measurement):")
	fmt.Fprintf(b, "  today:                >24h window for %d domains (%s)\n", now.Over24h, pct(now.Over24h, now.Total))
	fmt.Fprintf(b, "  psk_dhe_ke (no 0-RTT): %d domains (%s) — ticket windows collapse\n", dhe.Over24h, pct(dhe.Over24h, dhe.Total))
	fmt.Fprintf(b, "  with 0-RTT early data: %d domains (%s) — replayed data keeps today's exposure\n", early.Over24h, pct(early.Over24h, early.Total))
	return b.String()
}

// String renders the full report in paper order.
func (r *Report) String() string {
	sections := []func() string{
		r.FailureTable, r.Table1, r.Figure1, r.Figure2, r.Figure3, r.Figure4, r.Table2,
		r.Figure5, r.Table3, r.Table4, r.Table5, r.Table6, r.Table7,
		r.Figure6, r.Figure7, r.Figure8, r.TLS13Outlook,
	}
	// The cryptanalysis section exists only for weak-crypto campaigns, so
	// baseline reports render byte-identically to pre-cryptanalysis ones.
	if r.DS.Crypt != nil {
		sections = append(sections, r.Cryptanalysis)
	}
	// Likewise the traffic section exists only for traffic-plane runs.
	if r.DS.Traffic != nil {
		sections = append(sections, r.Traffic)
	}
	parts := make([]string, len(sections))
	for i, f := range sections {
		parts[i] = f()
	}
	return strings.Join(parts, "\n")
}
