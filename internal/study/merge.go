package study

import (
	"encoding/json"
	"fmt"

	"tlsshortcuts/internal/cryptanalysis"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/scanner"
	"tlsshortcuts/internal/traffic"
)

// MergeDatasets recombines a complete set of shard datasets — one Run
// per ShardSpec{i, N} for i in [0, N) over the same campaign options —
// into a dataset byte-identical (as JSON) to the monolithic Run's.
//
// Identity holds because every per-domain field is computed from that
// domain's own probes (entropy, fault decisions, and backend choice are
// keyed on the domain, never on global dial order), each domain belongs
// to exactly one shard, and every cross-shard structure is either a sum
// (snapshots, failure tallies, XD denominators), a disjoint union
// (span tables, missed days), a merge into rank order (lifetime rows), a
// sort (failure rows by scan/class), or a union-find closure whose edges
// are fully owned by the initiating domain's shard (cache groups).
// The groups derived purely from spans (STEK/DH groups) are simply
// recomputed from the merged spans with the same functions Run uses.
func MergeDatasets(shards ...*Dataset) (*Dataset, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("study: merge needs at least one shard")
	}
	ordered := make([]*Dataset, len(shards))
	for _, sd := range shards {
		if sd == nil {
			return nil, fmt.Errorf("study: merge: nil shard dataset")
		}
		if sd.Shard == nil {
			return nil, fmt.Errorf("study: merge: dataset has no shard spec (monolithic?)")
		}
		if err := sd.Shard.Validate(); err != nil {
			return nil, err
		}
		if sd.Shard.Count != len(shards) {
			return nil, fmt.Errorf("study: merge: got %d shards but spec says %d",
				len(shards), sd.Shard.Count)
		}
		if ordered[sd.Shard.Index] != nil {
			return nil, fmt.Errorf("study: merge: duplicate shard index %d", sd.Shard.Index)
		}
		ordered[sd.Shard.Index] = sd
	}

	first := ordered[0]
	for _, sd := range ordered[1:] {
		if err := compatibleShards(first, sd); err != nil {
			return nil, err
		}
	}

	out := &Dataset{
		ListSize:    first.ListSize,
		Days:        first.Days,
		Seed:        first.Seed,
		ScaleFactor: first.ScaleFactor,
		TrustedCore: first.TrustedCore,
		Operators:   first.Operators,
		Ranks:       first.Ranks,
		FaultPlan:   first.FaultPlan,
	}
	var err error
	if out.STEKSpans, err = mergeSpans(ordered, "STEK", func(d *Dataset) Spans { return d.STEKSpans }); err != nil {
		return nil, err
	}
	if out.DHESpans, err = mergeSpans(ordered, "DHE", func(d *Dataset) Spans { return d.DHESpans }); err != nil {
		return nil, err
	}
	if out.ECDHESpans, err = mergeSpans(ordered, "ECDHE", func(d *Dataset) Spans { return d.ECDHESpans }); err != nil {
		return nil, err
	}
	if out.IDLifetime, err = mergeLifetimes(ordered, "ID", out.Ranks, func(d *Dataset) []scanner.ProbeResult { return d.IDLifetime }); err != nil {
		return nil, err
	}
	if out.TicketLifetime, err = mergeLifetimes(ordered, "ticket", out.Ranks, func(d *Dataset) []scanner.ProbeResult { return d.TicketLifetime }); err != nil {
		return nil, err
	}

	fails := make(map[failKey]int)
	var xd scanner.XDStats
	xdSeen, xdMissing := 0, 0
	for _, sd := range ordered {
		out.TicketSnapshot = addSnapshot(out.TicketSnapshot, sd.TicketSnapshot)
		out.DHESnapshot = addSnapshot(out.DHESnapshot, sd.DHESnapshot)
		out.ECDHESnapshot = addSnapshot(out.ECDHESnapshot, sd.ECDHESnapshot)
		for domain, mask := range sd.MissedDays {
			if out.MissedDays == nil {
				out.MissedDays = make(map[string]uint64)
			}
			if _, dup := out.MissedDays[domain]; dup {
				return nil, fmt.Errorf("study: merge: domain %q missed days in two shards", domain)
			}
			out.MissedDays[domain] = mask
		}
		for _, fc := range sd.Failures {
			fails[failKey{fc.Scan, faults.ErrClass(fc.Class)}] += fc.Count
		}
		if sd.XDStats != nil {
			xd.Probed += sd.XDStats.Probed
			xd.Sessioned += sd.XDStats.Sessioned
			xd.InitFailed += sd.XDStats.InitFailed
			xd.ProbeFailed += sd.XDStats.ProbeFailed
			xdSeen++
		} else {
			xdMissing++
		}
		out.Dials += sd.Dials
	}

	out.Failures = failureTable(fails)

	// A shard run always records its XD denominators; the monolithic run
	// records them only when some connection failed. Merge reproduces the
	// monolithic condition.
	if xdSeen > 0 && xdMissing > 0 && (xd.InitFailed > 0 || xd.ProbeFailed > 0) {
		return nil, fmt.Errorf("study: merge: %d shard(s) missing XDStats while others report failures", xdMissing)
	}
	if xd.InitFailed > 0 || xd.ProbeFailed > 0 {
		st := xd
		out.XDStats = &st
	}

	// Cache groups: each shard reports the ≥2-member components of the
	// edges its initiators own. Re-unioning those components as cliques
	// reconstructs the monolithic connected components (singletons never
	// appear in either output, so dropping them per-shard loses nothing).
	uf := scanner.NewUnionFind()
	for _, sd := range ordered {
		for _, g := range sd.CacheGroups {
			for i := 1; i < len(g); i++ {
				uf.Union(g[0], g[i])
			}
		}
	}
	out.CacheGroups = multiSets(uf)
	out.STEKGroups = secretGroups(out.STEKSpans)
	out.DHGroups, out.DHSingleton = dhGroups(out.DHESpans, out.ECDHESpans)

	// Cryptanalysis findings: flat per-domain maps union disjointly and
	// the replay yield sums; either every shard ran the pass or none did.
	crypt, missing := 0, 0
	for _, sd := range ordered {
		if sd.Crypt != nil {
			crypt++
		} else {
			missing++
		}
	}
	if crypt > 0 && missing > 0 {
		return nil, fmt.Errorf("study: merge: %d shard(s) missing cryptanalysis findings while others carry them", missing)
	}
	if crypt > 0 {
		out.Crypt = cryptanalysis.NewFindings()
		for _, sd := range ordered {
			if err := out.Crypt.Merge(sd.Crypt); err != nil {
				return nil, fmt.Errorf("study: merge: %w", err)
			}
		}
	}

	// Traffic plane: per-policy tallies sum over the shards' disjoint
	// user partitions (either every shard ran the plane or none did),
	// then the window join is rebuilt against the merged campaign's
	// windows — a shard's own join only saw its slice's windows.
	tr, trMissing := 0, 0
	for _, sd := range ordered {
		if sd.Traffic != nil {
			tr++
		} else {
			trMissing++
		}
	}
	if tr > 0 && trMissing > 0 {
		return nil, fmt.Errorf("study: merge: %d shard(s) missing traffic results while others carry them", trMissing)
	}
	if tr > 0 {
		merged := &traffic.Results{}
		*merged = *ordered[0].Traffic
		merged.Policies = append([]traffic.PolicyStats(nil), ordered[0].Traffic.Policies...)
		for i := range merged.Policies {
			ps := &merged.Policies[i]
			doms := ps.Domains
			ps.Domains = make(map[string]traffic.DomainTally, len(doms))
			for d, t := range doms {
				ps.Domains[d] = t
			}
		}
		for _, sd := range ordered[1:] {
			if err := merged.Merge(sd.Traffic); err != nil {
				return nil, fmt.Errorf("study: merge: %w", err)
			}
		}
		out.Traffic = merged
		joinTraffic(out)
	}
	return out, nil
}

// compatibleShards rejects shards from different campaigns: every
// world-derived field must match the first shard's exactly.
func compatibleShards(a, b *Dataset) error {
	switch {
	case a.ListSize != b.ListSize:
		return fmt.Errorf("study: merge: ListSize mismatch (%d vs %d)", a.ListSize, b.ListSize)
	case a.Days != b.Days:
		return fmt.Errorf("study: merge: Days mismatch (%d vs %d)", a.Days, b.Days)
	case a.Seed != b.Seed:
		return fmt.Errorf("study: merge: Seed mismatch (%d vs %d)", a.Seed, b.Seed)
	case a.ScaleFactor != b.ScaleFactor:
		return fmt.Errorf("study: merge: ScaleFactor mismatch")
	case len(a.TrustedCore) != len(b.TrustedCore):
		return fmt.Errorf("study: merge: TrustedCore size mismatch")
	case len(a.Ranks) != len(b.Ranks):
		return fmt.Errorf("study: merge: Ranks size mismatch")
	}
	for i := range a.TrustedCore {
		if a.TrustedCore[i] != b.TrustedCore[i] {
			return fmt.Errorf("study: merge: TrustedCore differs at %d", i)
		}
	}
	pa, err := json.Marshal(a.FaultPlan)
	if err != nil {
		return err
	}
	pb, err := json.Marshal(b.FaultPlan)
	if err != nil {
		return err
	}
	if string(pa) != string(pb) {
		return fmt.Errorf("study: merge: fault plans differ")
	}
	return nil
}

// mergeSpans merges one table of every shard (in shard order) into one
// sorted table in a single pass. Each step copies the block of rows of
// the least head domain. Complementary shards never observe the same
// domain, so two heads on one domain mean the inputs are not a
// partition of one campaign; a shard table out of order is rejected too.
func mergeSpans(shards []*Dataset, kind string, table func(*Dataset) Spans) (Spans, error) {
	tables := make([]Spans, len(shards))
	n := 0
	for i, sd := range shards {
		tables[i] = table(sd)
		n += len(tables[i])
	}
	out := make(Spans, 0, n)
	next := make([]int, len(tables))
	for len(out) < n {
		least := -1
		for i, t := range tables {
			if next[i] == len(t) {
				continue
			}
			if least >= 0 && t[next[i]].Domain == tables[least][next[least]].Domain {
				return nil, fmt.Errorf("study: merge: %s spans for %q in shards %d and %d", kind, t[next[i]].Domain, least, i)
			}
			if least < 0 || t[next[i]].Domain < tables[least][next[least]].Domain {
				least = i
			}
		}
		t, j := tables[least], next[least]
		domain := t[j].Domain
		if j > 0 && t[j-1].Domain >= domain {
			return nil, fmt.Errorf("study: merge: shard %d %s spans not sorted at row %d", least, kind, j)
		}
		out = append(out, t[j])
		for j++; j < len(t) && t[j].Domain == domain; j++ {
			if t[j-1].ID >= t[j].ID {
				return nil, fmt.Errorf("study: merge: shard %d %s spans not sorted at row %d", least, kind, j)
			}
			out = append(out, t[j])
		}
		next[least] = j
	}
	return out, nil
}

func addSnapshot(a, b Snapshot) Snapshot {
	return Snapshot{
		Scanned:    a.Scanned + b.Scanned,
		Trusted:    a.Trusted + b.Trusted,
		Support:    a.Support + b.Support,
		Reuse2x:    a.Reuse2x + b.Reuse2x,
		PairFailed: a.PairFailed + b.PairFailed,
	}
}

// mergeLifetimes merges one lifetime table of every shard (in shard
// order) into the monolithic run's order, which is the trusted core's:
// rank ascending. Each shard's rows arrive in that order, so each step
// takes the head row of least rank, and each row's rank is looked up
// once, when it becomes its shard's head. A row whose domain has no rank,
// a shard out of rank order, and two heads of one rank (a domain in two
// shards) are rejected. No rows at all merge to nil, as concatenating
// the shards' rows did.
func mergeLifetimes(shards []*Dataset, kind string, ranks map[string]int, table func(*Dataset) []scanner.ProbeResult) ([]scanner.ProbeResult, error) {
	tables := make([][]scanner.ProbeResult, len(shards))
	n := 0
	for i, sd := range shards {
		tables[i] = table(sd)
		n += len(tables[i])
	}
	if n == 0 {
		return nil, nil
	}
	next := make([]int, len(tables))
	head := make([]int, len(tables)) // rank of each table's next row
	lookup := func(i int) error {
		t, j := tables[i], next[i]
		if j == len(t) {
			return nil
		}
		r, ok := ranks[t[j].Domain]
		switch {
		case !ok:
			return fmt.Errorf("study: merge: shard %d %s lifetime row %d: %q has no rank", i, kind, j, t[j].Domain)
		case j > 0 && r <= head[i]:
			return fmt.Errorf("study: merge: shard %d %s lifetime rows not in rank order at row %d", i, kind, j)
		}
		head[i] = r
		return nil
	}
	for i := range tables {
		if err := lookup(i); err != nil {
			return nil, err
		}
	}
	out := make([]scanner.ProbeResult, 0, n)
	for len(out) < n {
		least := -1
		for i, t := range tables {
			if next[i] == len(t) {
				continue
			}
			if least >= 0 && head[i] == head[least] {
				return nil, fmt.Errorf("study: merge: %s lifetime rows of rank %d in shards %d and %d", kind, head[i], least, i)
			}
			if least < 0 || head[i] < head[least] {
				least = i
			}
		}
		out = append(out, tables[least][next[least]])
		next[least]++
		if err := lookup(least); err != nil {
			return nil, err
		}
	}
	return out, nil
}
