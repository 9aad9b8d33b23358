package study

import (
	"bytes"
	"strings"
	"testing"

	"tlsshortcuts/internal/traffic"
)

// trafficOpts is the traffic-plane contract campaign: small enough to
// run several times in a test, busy enough that every policy resumes,
// evicts, and crosses hostnames.
func trafficOpts() Options {
	return Options{
		ListSize: 120, Days: 4, Seed: 11, Workers: 8,
		Traffic: &traffic.Options{Users: 60},
	}
}

func runTraffic(t *testing.T, o Options) *Dataset {
	t.Helper()
	ds, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return ds
}

// TestTrafficDatasetPopulated sanity-checks the plane's measurements:
// visits completed, sessions resumed via both mechanisms, chains closed
// with mass conservation (chain lengths sum to completed connections),
// and the window join found real in-window traffic.
func TestTrafficDatasetPopulated(t *testing.T) {
	ds := runTraffic(t, trafficOpts())
	tr := ds.Traffic
	if tr == nil {
		t.Fatal("traffic campaign produced no Traffic results")
	}
	if tr.Days != 4 || tr.Users != 60 {
		t.Fatalf("Traffic identity = %d users / %d days, want 60/4", tr.Users, tr.Days)
	}
	var users int
	var conns, resumed, viaTicket, viaID, full, chains, lenMass uint64
	for i := range tr.Policies {
		p := &tr.Policies[i]
		users += p.Users
		conns += p.Conns
		resumed += p.Resumed
		viaTicket += p.ResumedTicket
		viaID += p.ResumedID
		full += p.Full
		chains += p.Chains
		for _, n := range p.ChainLen {
			lenMass += n
		}
		if p.Full+p.Resumed != p.Conns {
			t.Errorf("policy %s: full %d + resumed %d != conns %d",
				p.Policy.Name, p.Full, p.Resumed, p.Conns)
		}
	}
	if users != 60 {
		t.Errorf("per-policy user counts sum to %d, want 60", users)
	}
	if conns == 0 || resumed == 0 || viaTicket == 0 || viaID == 0 {
		t.Errorf("want nonzero conns/resumed/ticket/id, got %d/%d/%d/%d",
			conns, resumed, viaTicket, viaID)
	}
	// Every chain starts at exactly one full handshake and every chain
	// closes by campaign end, so chains == full handshakes and the
	// length histogram's mass is one entry per chain.
	if chains == 0 || chains != full || lenMass != chains {
		t.Errorf("chains %d (histogram mass %d) != full handshakes %d",
			chains, lenMass, full)
	}
	j := tr.Join
	if j == nil {
		t.Fatal("traffic results missing the window join")
	}
	if j.Connections.Total != conns {
		t.Errorf("join total %d != completed conns %d", j.Connections.Total, conns)
	}
	if j.Connections.InWindow == 0 || j.Bytes.InWindow == 0 {
		t.Errorf("want nonzero in-window traffic, got %d conns / %d bytes",
			j.Connections.InWindow, j.Bytes.InWindow)
	}
	// The report must render the Traffic section for a traffic dataset.
	rep := BuildReport(ds).String()
	if !strings.Contains(rep, "Traffic: measured exposure") {
		t.Error("report is missing the Traffic section")
	}
	if !strings.Contains(rep, "resumption tracking chains") {
		t.Error("report is missing the tracking-chain section")
	}
}

// TestTrafficDeterministicAcrossWorkers pins the contract that worker
// scheduling cannot show in the dataset: 3 and 13 workers (scanner and
// traffic pools both) produce byte-identical JSON.
func TestTrafficDeterministicAcrossWorkers(t *testing.T) {
	a := trafficOpts()
	a.Workers = 3
	b := trafficOpts()
	b.Workers = 13
	da := marshal(t, runTraffic(t, a))
	db := marshal(t, runTraffic(t, b))
	if !bytes.Equal(da, db) {
		t.Fatalf("3-worker and 13-worker traffic datasets differ (%d vs %d bytes)", len(da), len(db))
	}
}

// TestTrafficShardMergeMatchesMonolithic runs the traffic campaign as
// two shards (domains round-robin, users by user id) and checks the
// merged dataset — including the recomputed window join — is
// byte-identical to the monolithic run's.
func TestTrafficShardMergeMatchesMonolithic(t *testing.T) {
	mono := runTraffic(t, trafficOpts())

	shards := make([]*Dataset, 2)
	for i := range shards {
		o := trafficOpts()
		o.Shard = &ShardSpec{Index: i, Count: 2}
		shards[i] = runTraffic(t, o)
	}
	merged, err := MergeDatasets(shards...)
	if err != nil {
		t.Fatalf("MergeDatasets: %v", err)
	}
	dm, dmono := marshal(t, merged), marshal(t, mono)
	if !bytes.Equal(dm, dmono) {
		t.Fatalf("merged traffic dataset differs from monolithic (%d vs %d bytes)", len(dm), len(dmono))
	}
}
