// Command tlsobserve is the analysis face of the campaign observability
// plane. It consumes flight-recorder journals written by studyrun
// -journal (one per shard) after the run and prints correlated views of
// them:
//
//	tlsobserve timeline [-k 5] shard0.jsonl shard1.jsonl ...
//	    correlated timeline: per-shard lanes aligned on virtual day,
//	    the top-K slowest phases, and the error-class x day table
//
//	tlsobserve diff [-tolerance 0.25] runA.jsonl runB.jsonl
//	    compare two runs: deterministic journal metrics must match
//	    exactly (any drift is a failure), wall-time metrics get the
//	    loose tolerance. Each run may be a comma-separated list of
//	    shard journals, merged before the comparison. Exits 1 on
//	    regression or drift.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"tlsshortcuts/internal/obsv"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "timeline":
		err = runTimeline(os.Stdout, os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tlsobserve: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlsobserve: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tlsobserve timeline [-k K] JOURNAL.jsonl [JOURNAL.jsonl ...]
  tlsobserve diff [-tolerance FRAC] RUN_A RUN_B
        (a RUN is a journal path, or comma-separated shard journals)`)
}

// loadRun reads and validates one or more (comma-joined) shard journals
// and merges them into a single deterministic journal. The second
// return is the run's total phase wall time in seconds, summed over the
// raw (pre-normalization) journals — the merge strips wall fields, but
// diff still compares the aggregate as a loose-tolerance metric.
func loadRun(spec string) ([]obsv.Event, float64, error) {
	paths := splitList(spec)
	journals := make([][]obsv.Event, 0, len(paths))
	var wall float64
	for _, p := range paths {
		evs, err := obsv.ReadJournal(p)
		if err != nil {
			return nil, 0, err
		}
		for _, ev := range evs {
			if ev.Type == obsv.EventPhaseEnd {
				wall += float64(ev.WallNanos) / 1e9
			}
		}
		journals = append(journals, evs)
	}
	merged, err := obsv.MergeJournalsDeterministic(journals...)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", spec, err)
	}
	return merged, wall, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// laneKey labels one journal's lane in the timeline: its shard
// coordinate when recorded, else the file name.
func laneKey(path string, evs []obsv.Event) string {
	for _, ev := range evs {
		if ev.Shard != "" {
			return ev.Shard
		}
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return base
}

// trafficPhase reports whether a phase belongs to the traffic plane
// (studyrun emits "traffic-day" phase spans when -traffic is on). Traffic
// phases get their own timeline lane instead of riding the scan lanes:
// the scan phase sequence must align positionally across shards whether
// or not traffic ran.
func trafficPhase(phase string) bool {
	return strings.HasPrefix(phase, "traffic")
}

// runTimeline prints the correlated cross-shard timeline.
func runTimeline(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	topK := fs.Int("k", 5, "number of slowest phases to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("timeline: at least one journal required")
	}
	type lane struct {
		key string
		evs []obsv.Event
	}
	lanes := make([]lane, 0, len(paths))
	for _, p := range paths {
		evs, err := obsv.ReadJournal(p)
		if err != nil {
			return err
		}
		if err := obsv.ValidateJournal(evs); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		lanes = append(lanes, lane{key: laneKey(p, evs), evs: evs})
	}

	// Header: campaign identity from the first journal's start event.
	start := lanes[0].evs[0]
	fmt.Fprintf(w, "campaign: %d domains x %d days, seed %d — %d shard journal(s)\n",
		start.ListSize, start.Days, start.Seed, len(lanes))
	terminal := lanes[0].evs[len(lanes[0].evs)-1]
	switch terminal.Type {
	case obsv.EventCampaignEnd:
		fmt.Fprintf(w, "status: completed, dataset sha256 %s\n", terminal.DatasetSHA256)
	case obsv.EventCampaignAborted:
		fmt.Fprintf(w, "status: ABORTED — %s\n", terminal.Err)
	default:
		fmt.Fprintf(w, "status: in progress (journal ends with %s)\n", terminal.Type)
	}

	// Index phase_end events per lane. Scan phases align positionally
	// across shards; traffic-day phases are keyed by day and rendered in
	// a per-journal ":traffic" lane on the matching scan-day row.
	perLane := make([][]obsv.Event, len(lanes))
	perTraffic := make([]map[int]obsv.Event, len(lanes))
	for i, ln := range lanes {
		for _, ev := range ln.evs {
			if ev.Type != obsv.EventPhaseEnd {
				continue
			}
			if trafficPhase(ev.Phase) {
				if perTraffic[i] == nil {
					perTraffic[i] = map[int]obsv.Event{}
				}
				perTraffic[i][ev.Day] = ev
			} else {
				perLane[i] = append(perLane[i], ev)
			}
		}
	}

	// Correlated lanes: every scan phase_end, aligned positionally across
	// shards (shards emit identical phase sequences; a divergence is
	// itself a finding, so it is printed rather than fatal).
	fmt.Fprintf(w, "\ntimeline (aligned on virtual day):\n")
	fmt.Fprintf(w, "%-16s %-4s %-21s", "phase", "day", "virtual")
	for i, ln := range lanes {
		fmt.Fprintf(w, "  %-28s", ln.key)
		if perTraffic[i] != nil {
			fmt.Fprintf(w, "  %-28s", ln.key+":traffic")
		}
	}
	fmt.Fprintln(w)
	rows := 0
	for _, l := range perLane {
		if len(l) > rows {
			rows = len(l)
		}
	}
	for r := 0; r < rows; r++ {
		var ref *obsv.Event
		for i := range perLane {
			if r < len(perLane[i]) {
				ref = &perLane[i][r]
				break
			}
		}
		fmt.Fprintf(w, "%-16s %-4d %-21s", ref.Phase, ref.Day, ref.VirtualDate)
		for i := range perLane {
			if r >= len(perLane[i]) {
				fmt.Fprintf(w, "  %-28s", "-")
			} else {
				ev := perLane[i][r]
				cell := fmt.Sprintf("hs=%d fail=%d %s", ev.Handshakes, ev.Failures, fmtWall(ev.WallNanos))
				if ev.Phase != ref.Phase || ev.Day != ref.Day {
					cell = fmt.Sprintf("DIVERGED(%s/%d)", ev.Phase, ev.Day)
				}
				fmt.Fprintf(w, "  %-28s", cell)
			}
			if perTraffic[i] == nil {
				continue
			}
			// Traffic cells ride the scan "day" rows: the traffic plane
			// runs inside each scan day on the same virtual date.
			cell := "-"
			if ev, ok := perTraffic[i][ref.Day]; ok && ref.Phase == "day" {
				cell = fmt.Sprintf("vis=%d fail=%d %s", ev.Handshakes, ev.Failures, fmtWall(ev.WallNanos))
			}
			fmt.Fprintf(w, "  %-28s", cell)
		}
		fmt.Fprintln(w)
	}

	// Top-K slowest phases across all shards (scan and traffic alike).
	type slow struct {
		lane string
		ev   obsv.Event
	}
	var slows []slow
	for i, ln := range lanes {
		for _, ev := range perLane[i] {
			slows = append(slows, slow{lane: ln.key, ev: ev})
		}
		for _, ev := range perTraffic[i] {
			slows = append(slows, slow{lane: ln.key, ev: ev})
		}
	}
	sort.Slice(slows, func(a, b int) bool {
		if slows[a].ev.WallNanos != slows[b].ev.WallNanos {
			return slows[a].ev.WallNanos > slows[b].ev.WallNanos
		}
		if slows[a].lane != slows[b].lane {
			return slows[a].lane < slows[b].lane
		}
		return slows[a].ev.Seq < slows[b].ev.Seq
	})
	if *topK > len(slows) {
		*topK = len(slows)
	}
	fmt.Fprintf(w, "\ntop %d slowest phases:\n", *topK)
	for _, s := range slows[:*topK] {
		fmt.Fprintf(w, "  %10s  %-16s day %-3d %-11s  handshakes %-7d util %.2f\n",
			fmtWall(s.ev.WallNanos), s.ev.Phase, s.ev.Day, s.lane, s.ev.Handshakes, s.ev.Utilization)
	}

	// Error-class x day failure table, summed across shards (traffic
	// failures are classified through the same faults taxonomy, so the
	// traffic-day spans merge into the same table).
	classSet := map[string]bool{}
	byDay := map[int]map[string]uint64{}
	var days []int
	addClasses := func(ev obsv.Event) {
		if len(ev.FailureClasses) == 0 {
			return
		}
		m := byDay[ev.Day]
		if m == nil {
			m = map[string]uint64{}
			byDay[ev.Day] = m
			days = append(days, ev.Day)
		}
		for class, n := range ev.FailureClasses {
			classSet[class] = true
			m[class] += n
		}
	}
	for i := range perLane {
		for _, ev := range perLane[i] {
			addClasses(ev)
		}
		for _, ev := range perTraffic[i] {
			addClasses(ev)
		}
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	sort.Ints(days)
	fmt.Fprintf(w, "\nfailures by error class and day (all shards):\n")
	if len(classes) == 0 {
		fmt.Fprintln(w, "  (no probe failures recorded)")
		return nil
	}
	fmt.Fprintf(w, "%-6s", "day")
	for _, c := range classes {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintf(w, " %10s\n", "total")
	for _, d := range days {
		label := fmt.Sprintf("%d", d)
		if d < 0 {
			label = "pre"
		}
		fmt.Fprintf(w, "%-6s", label)
		var total uint64
		for _, c := range classes {
			fmt.Fprintf(w, " %10d", byDay[d][c])
			total += byDay[d][c]
		}
		fmt.Fprintf(w, " %10d\n", total)
	}
	return nil
}

// fmtWall renders a nanosecond span compactly.
func fmtWall(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// runSummary is diff's comparison unit: the run's deterministic totals
// plus its (noisy) total wall time.
type runSummary struct {
	det  map[string]float64 // metric -> value; must match exactly
	wall float64            // total phase wall seconds; loose tolerance
}

func summarize(events []obsv.Event) runSummary {
	s := runSummary{det: map[string]float64{}}
	for _, ev := range events {
		if ev.Type != obsv.EventPhaseEnd {
			continue
		}
		s.det["handshakes"] += float64(ev.Handshakes)
		s.det["retries"] += float64(ev.Retries)
		s.det["probe_failures"] += float64(ev.Failures)
		s.det["pair_failures"] += float64(ev.PairFailures)
		for class, n := range ev.FailureClasses {
			s.det["fail/"+class] += float64(n)
		}
		for kind, n := range ev.Faults {
			s.det["fault/"+kind] += float64(n)
		}
	}
	return s
}

// runDiff compares two runs. Any drift in a deterministic metric is a
// failure (the runs measured different things); wall time regresses
// only past the loose tolerance.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tolerance", 0.25, "wall-time regression tolerance (fraction over baseline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two runs, got %d", fs.NArg())
	}
	base, baseWall, err := loadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, curWall, err := loadRun(fs.Arg(1))
	if err != nil {
		return err
	}
	bs, cs := summarize(base), summarize(cur)
	bs.wall, cs.wall = baseWall, curWall

	names := map[string]bool{}
	for n := range bs.det {
		names[n] = true
	}
	for n := range cs.det {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fail := false
	for _, name := range sorted {
		baseV, curV := bs.det[name], cs.det[name]
		status := "ok"
		if baseV != curV {
			status = "DRIFT"
			fail = true
		}
		fmt.Printf("%-18s baseline %14.4g  current %14.4g  delta %+7.1f%%  (tolerance +%.0f%%)  %s\n",
			name, baseV, curV, 100*ratio(baseV, curV), 0.0, status)
	}
	status := "ok"
	if cs.wall > bs.wall*(1+*tol) {
		status = "REGRESSION"
		fail = true
	}
	fmt.Printf("%-18s baseline %14.4g  current %14.4g  delta %+7.1f%%  (tolerance +%.0f%%)  %s\n",
		"wall_seconds", bs.wall, cs.wall, 100*ratio(bs.wall, cs.wall), 100**tol, status)

	if fail {
		fmt.Println("tlsobserve: FAIL — runs diverged past tolerance")
		fmt.Println("tlsobserve: deterministic drift means the runs measured different campaigns; check seed/options")
		os.Exit(1)
	}
	fmt.Println("tlsobserve: OK — runs equivalent within tolerance")
	return nil
}

func ratio(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - base) / base
}
