package study

import (
	"encoding/hex"
	"sort"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/scanner"
	"tlsshortcuts/internal/wire"
)

// failKey is one (scan, class) cell of the running failure tally.
type failKey struct {
	scan  string
	class faults.ErrClass
}

// aggregator folds scan results into the Dataset as they are produced,
// so a campaign retains only per-secret aggregates — secret-ID day
// bitmasks, failure tallies, attendance records — instead of per-day
// observation slices. Each day's Observation buffer is reused by the
// next day (see Scanner.DailyInto), and everything BuildReport and the
// §6 vulnerability-window model need survives in the aggregates. These
// grow with the secrets observed, not with the observations: a secret
// seen on every day is one row, but a server that draws a fresh
// key-exchange value daily adds one row per scan day.
//
// The span tables fold into one map per mechanism, keyed by (domain,
// ID), and finish sorts each into the Dataset's Spans once.
type aggregator struct {
	ds    *Dataset
	fails map[failKey]int

	stek, dhe, ecdhe map[spanKey]uint64
}

func newAggregator(ds *Dataset) *aggregator {
	return &aggregator{
		ds:    ds,
		fails: make(map[failKey]int),
		stek:  make(map[spanKey]uint64),
		dhe:   make(map[spanKey]uint64),
		ecdhe: make(map[spanKey]uint64),
	}
}

// addFail tallies one failed connection; ClassNone (success) is ignored
// so call sites can pass classifications through unconditionally.
func (a *aggregator) addFail(scan string, c faults.ErrClass) {
	if c != faults.ClassNone {
		a.fails[failKey{scan, c}]++
	}
}

// foldLifetime accounts a lifetime-probe pass's initial-handshake
// failures under the given scan name.
func (a *aggregator) foldLifetime(scan string, prs []scanner.ProbeResult) {
	for _, pr := range prs {
		a.addFail(scan, pr.ErrClass)
	}
}

// foldTicketDay folds one day's two-connection ticket scan: STEK span
// bitmasks, the attendance record behind the consistent core, and the
// failure taxonomy. It returns the day's (first-connection, pair)
// failure counts for span tracing.
func (a *aggregator) foldTicketDay(obs []scanner.Observation, day int) (dayFails, pairFails int) {
	for _, ob := range obs {
		if ob.ErrClass != faults.ClassNone {
			a.addFail("ticket", ob.ErrClass)
			missDay(a.ds, ob.Domain, day)
			dayFails++
		}
		a.addFail("ticket-pair", ob.ErrClass2)
		if ob.ErrClass2 != faults.ClassNone {
			pairFails++
		}
		if ob.OK && ob.Trusted && len(ob.STEKID) > 0 {
			a.stek[spanKey{ob.Domain, hex.EncodeToString(ob.STEKID)}] |= 1 << uint(day)
		}
	}
	return dayFails, pairFails
}

// foldKexDay folds one day's forced-suite key-exchange scan into the
// given fold table. Only transient first-connection classes count as
// failures: a forced-suite alert from a server that does not speak the
// suite is a measurement, not a failure.
func (a *aggregator) foldKexDay(obs []scanner.Observation, scan string, kex wire.Kex, spans map[spanKey]uint64, day int) (dayFails, pairFails int) {
	for _, ob := range obs {
		if faults.Transient(ob.ErrClass) {
			a.addFail(scan, ob.ErrClass)
			dayFails++
		}
		a.addFail(scan+"-pair", ob.ErrClass2)
		if ob.ErrClass2 != faults.ClassNone {
			pairFails++
		}
		if ob.OK && ob.Kex == kex && len(ob.KEXValue) > 0 {
			spans[spanKey{ob.Domain, valueID(ob.KEXValue)}] |= 1 << uint(day)
		}
	}
	return dayFails, pairFails
}

// finish materializes the failure tally and the span folds as the
// Dataset's sorted tables.
func (a *aggregator) finish() {
	a.ds.Failures = failureTable(a.fails)
	a.ds.STEKSpans = sortedSpans(a.stek)
	a.ds.DHESpans = sortedSpans(a.dhe)
	a.ds.ECDHESpans = sortedSpans(a.ecdhe)
}

// failureTable sorts a failure tally by (scan, class); nil when empty.
func failureTable(fails map[failKey]int) []FailureCount {
	var out []FailureCount
	for k, n := range fails {
		out = append(out, FailureCount{Scan: k.scan, Class: string(k.class), Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scan != out[j].Scan {
			return out[i].Scan < out[j].Scan
		}
		return out[i].Class < out[j].Class
	})
	return out
}
