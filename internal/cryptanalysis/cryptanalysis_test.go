package cryptanalysis

import (
	"bytes"
	"crypto/rand"
	"math"
	"testing"

	"tlsshortcuts/internal/attacker"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/ticket"
)

func sealedState() *session.State {
	st := &session.State{Version: 0x0303, Suite: 0xC02F, CreatedAt: simclock.Epoch}
	for i := range st.MasterSecret {
		st.MasterSecret[i] = byte(i)
	}
	return st
}

func TestDictionaryCracksWeakSeeds(t *testing.T) {
	st := sealedState()
	d := Dict()
	for _, f := range []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel} {
		k := ticket.Derive(WeakSeed(17), f)
		tkt, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got := d.Crack(tkt)
		if got == nil {
			t.Fatalf("%v: weak-seed ticket not cracked", f)
		}
		if !bytes.Equal(got.Name, k.Name) || got.AESKey != k.AESKey {
			t.Errorf("%v: cracked the wrong key", f)
		}
		if got.Open(tkt) == nil {
			t.Errorf("%v: cracked key fails to open the ticket", f)
		}
	}

	// A strong-seed ticket must not crack — even at the name layer.
	k := ticket.Derive([]byte("high-entropy-operator-seed"), ticket.FormatRFC5077)
	tkt, err := k.Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if d.Crack(tkt) != nil {
		t.Error("strong-seed ticket cracked")
	}
	if d.Crack([]byte("not a ticket")) != nil {
		t.Error("junk bytes cracked")
	}
	if bits := SeedEntropyBits(); bits != 12 {
		t.Errorf("SeedEntropyBits = %v, want 12", bits)
	}
}

// TestDictionaryCracksSampledSeeds seals under weak seeds spread over
// the whole space, both ends included, in every format, and requires
// Crack to return the sealing key itself.
func TestDictionaryCracksSampledSeeds(t *testing.T) {
	st := sealedState()
	d := Dict()
	seeds := []int{0, 1, 255, 1000, 2047, 2048, 3333, WeakSeedSpace - 1}
	for _, f := range []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel} {
		for _, i := range seeds {
			k := ticket.Derive(WeakSeed(i), f)
			tkt, err := k.Seal(st, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			got := d.Crack(tkt)
			if got == nil {
				t.Errorf("%v seed %d: not cracked", f, i)
				continue
			}
			if got.Format != f || !bytes.Equal(got.Name, k.Name) || got.AESKey != k.AESKey || got.MACKey != k.MACKey {
				t.Errorf("%v seed %d: cracked the wrong key", f, i)
			}
		}
	}
}

// The crack requires the authenticated open, not just a name hit: a
// forged ticket wearing a weak key's name must not count as recovered,
// in any format.
func TestDictionaryRejectsNameCollision(t *testing.T) {
	st := sealedState()
	for _, f := range []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel} {
		weak := ticket.Derive(WeakSeed(3), f)
		other := ticket.Derive([]byte("unrelated"), f)
		tkt, err := other.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// Graft the weak name onto a foreign ticket, where the format
		// carries its key name.
		copy(ticket.KeyName(tkt), weak.Name)
		if !bytes.Equal(ticket.KeyName(tkt), weak.Name) {
			t.Fatalf("%v: graft did not take", f)
		}
		if Dict().Crack(tkt) != nil {
			t.Errorf("%v: name-grafted ticket cracked without the key authenticating", f)
		}
	}
}

func TestIsWeakPrimeIsRegistryMembership(t *testing.T) {
	eb, _ := ffdh.ExportGroup512().ParamBytes()
	id, ok := IsWeakPrime(eb)
	if !ok || id != "export512" {
		t.Errorf("export prime -> (%q, %v), want (export512, true)", id, ok)
	}
	if bits := WeakPrimeBits(id); bits != 512 {
		t.Errorf("WeakPrimeBits(%q) = %d, want 512", id, bits)
	}
	// The baseline simulation prime is also 512-bit but NOT in the
	// registry: flagging it would claim precomputation nobody has done —
	// and would break baseline-campaign inertness.
	tb, _ := ffdh.TestGroup512().ParamBytes()
	if id, ok := IsWeakPrime(tb); ok {
		t.Errorf("baseline prime flagged as weak (%q)", id)
	}
}

func TestSharedKeyNames(t *testing.T) {
	keyNames := map[string]string{
		"a.com": "aaaa", "b.com": "aaaa", // same name, different operators
		"c.com": "cccc", "d.com": "cccc", // same name, one operator
		"e.com": "eeee",
	}
	operators := map[string]string{
		"a.com": "op1", "b.com": "op2",
		"c.com": "op3", "d.com": "op3",
		"e.com": "op4",
	}
	groups := SharedKeyNames(keyNames, operators)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1: %+v", len(groups), groups)
	}
	g := groups[0]
	if g.KeyName != "aaaa" {
		t.Errorf("group key name %q", g.KeyName)
	}
	if len(g.Operators) != 2 || g.Operators[0] != "op1" || g.Operators[1] != "op2" {
		t.Errorf("group operators %v", g.Operators)
	}
	if len(g.Domains) != 2 || g.Domains[0] != "a.com" || g.Domains[1] != "b.com" {
		t.Errorf("group domains %v", g.Domains)
	}
}

func TestKeystreamReuse(t *testing.T) {
	ivs := map[string][]string{
		"a.com": {"11", "11"},       // repeated within one domain
		"b.com": {"22"},             // repeated across domains (with c.com)
		"c.com": {"22", "33"},       //
		"d.com": {"44", "55", "66"}, // all fresh
	}
	keyNames := map[string]string{
		"a.com": "ka", "b.com": "kb", "c.com": "kb", "d.com": "kd",
	}
	got := KeystreamReuse(ivs, keyNames)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(got), got)
	}
	if got[0].KeyName != "ka" || got[0].IV != "11" || got[0].Count != 2 ||
		len(got[0].Domains) != 1 || got[0].Domains[0] != "a.com" {
		t.Errorf("finding 0 = %+v", got[0])
	}
	if got[1].KeyName != "kb" || got[1].IV != "22" || got[1].Count != 2 ||
		len(got[1].Domains) != 2 {
		t.Errorf("finding 1 = %+v", got[1])
	}
	// The same IV under DIFFERENT keys is not keystream reuse.
	if out := KeystreamReuse(map[string][]string{"x": {"99"}, "y": {"99"}},
		map[string]string{"x": "k1", "y": "k2"}); len(out) != 0 {
		t.Errorf("cross-key IV repeat misreported: %+v", out)
	}
}

func TestFindingsMerge(t *testing.T) {
	a := NewFindings()
	a.KeyNames["a.com"] = "ka"
	a.IVs["a.com"] = []string{"11"}
	a.Cracked["a.com"] = "ka"
	a.Yield = attacker.Yield{Attempted: 2, Domains: 1, Connections: 1, Bytes: 100}
	b := NewFindings()
	b.KeyNames["b.com"] = "kb"
	b.WeakPrime["b.com"] = "export512"
	b.Yield = attacker.Yield{Attempted: 3, Domains: 2, Connections: 2, Bytes: 50}

	m := NewFindings()
	if err := m.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(m.KeyNames) != 2 || m.WeakPrime["b.com"] != "export512" || m.Cracked["a.com"] != "ka" {
		t.Errorf("merged findings wrong: %+v", m)
	}
	if m.Yield != (attacker.Yield{Attempted: 5, Domains: 3, Connections: 3, Bytes: 150}) {
		t.Errorf("merged yield = %+v", m.Yield)
	}
	// Overlapping domains mean the shards were not a partition.
	dup := NewFindings()
	dup.KeyNames["a.com"] = "other"
	if err := m.Merge(dup); err == nil {
		t.Error("merge accepted a duplicate domain")
	}
}

func TestShannonBitsPerByte(t *testing.T) {
	if h := ShannonBitsPerByte(nil); h != 0 {
		t.Errorf("entropy of nothing = %v", h)
	}
	if h := ShannonBitsPerByte(bytes.Repeat([]byte{0x5a}, 64)); h != 0 {
		t.Errorf("entropy of a constant = %v, want 0", h)
	}
	uniform := make([]byte, 256)
	for i := range uniform {
		uniform[i] = byte(i)
	}
	if h := ShannonBitsPerByte(uniform); math.Abs(h-8) > 1e-9 {
		t.Errorf("entropy of uniform bytes = %v, want 8", h)
	}
}
