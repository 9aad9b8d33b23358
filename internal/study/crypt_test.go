package study

import (
	"strings"
	"testing"

	"tlsshortcuts/internal/cryptanalysis"
)

// TestWeakCryptoCampaign runs the determinism campaign with the weak
// profiles enabled and checks every probe fires and the measured yield
// lands in the calibration band: Hebrok et al. passively decrypted 1.9%
// of the Tranco 100k, and the weak profile fractions are set to
// reproduce that rate within 2x on the trusted core.
func TestWeakCryptoCampaign(t *testing.T) {
	o := detOpts
	o.WeakCrypto = true
	ds, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := ds.Crypt
	if c == nil {
		t.Fatal("WeakCrypto campaign produced no cryptanalysis findings")
	}

	// Probes.
	if len(c.Cracked) == 0 {
		t.Error("no weak STEKs cracked")
	}
	if shared := cryptanalysis.SharedKeyNames(c.KeyNames, ds.Operators); len(shared) == 0 {
		t.Error("no shared key names across operators (weakseed-cdn and sharedname-host share a seed)")
	}
	if reuse := cryptanalysis.KeystreamReuse(c.IVs, c.KeyNames); len(reuse) == 0 {
		t.Error("no keystream reuse detected (fixediv-cloud seals with a fixed IV)")
	}
	if len(c.WeakPrime) == 0 {
		t.Error("no weak FFDH primes observed (exportdh-legacy serves the export group)")
	}

	// Measured yield: actual decrypted traffic, not just weak-looking keys.
	y := c.Yield
	if y.Connections == 0 || y.Domains == 0 || y.Bytes == 0 {
		t.Fatalf("replay decrypted nothing: %+v", y)
	}
	if y.Attempted < y.Connections {
		t.Errorf("yield accounting broken: %+v", y)
	}
	for d := range c.Cracked {
		if _, ok := ds.Ranks[d]; !ok {
			t.Errorf("cracked domain %s not in the trusted core", d)
		}
	}

	// Calibration: decryptable fraction of the trusted core within 2x of
	// Hebrok's 1.9%.
	frac := float64(y.Domains) / float64(len(ds.TrustedCore))
	if frac < 0.019/2 || frac > 0.019*2 {
		t.Errorf("decryptable fraction %.4f (%d/%d) outside [%.4f, %.4f]",
			frac, y.Domains, len(ds.TrustedCore), 0.019/2, 0.019*2)
	}

	// The report renders the section, with the yield in it.
	out := BuildReport(ds).String()
	if !strings.Contains(out, "Cryptanalysis") {
		t.Error("report missing the cryptanalysis section")
	}
	if !strings.Contains(out, "replay yield") {
		t.Error("report missing the replay yield line")
	}
}

// TestWeakCryptoDeterminism pins the weak campaign to the same
// reproducibility bar as the baseline: the dataset hash is independent
// of worker count, and running it as shards and merging reproduces the
// monolithic bytes.
func TestWeakCryptoDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small campaigns")
	}
	o := detOpts
	o.WeakCrypto = true
	o.Workers = 3
	h3 := datasetHash(t, o)
	o.Workers = 13
	h13 := datasetHash(t, o)
	if h3 != h13 {
		t.Fatalf("weak campaign depends on worker count:\n  w3  %s\n  w13 %s", h3, h13)
	}
	o.Workers = detOpts.Workers
	if merged := shardedHash(t, o, 2); merged != h3 {
		t.Fatalf("merged 2-shard weak campaign differs from monolithic:\n  merged %s\n  mono   %s", merged, h3)
	}
}
