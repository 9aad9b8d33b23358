package ticket

import (
	"bytes"
	"crypto/rand"
	"testing"
	"time"

	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
)

func testState() *session.State {
	st := &session.State{Version: 0x0303, Suite: 0xC02F, CreatedAt: simclock.Epoch}
	for i := range st.MasterSecret {
		st.MasterSecret[i] = byte(i * 3)
	}
	return st
}

func TestSealOpenRoundTripAllFormats(t *testing.T) {
	st := testState()
	for _, f := range []Format{FormatRFC5077, FormatMbedTLS, FormatSChannel} {
		k := Derive([]byte("round-trip"), f)
		tkt, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatalf("%v: seal: %v", f, err)
		}
		got := k.Open(tkt)
		if got == nil {
			t.Fatalf("%v: open failed", f)
		}
		if got.Suite != st.Suite || got.Version != st.Version ||
			!got.CreatedAt.Equal(st.CreatedAt) || got.MasterSecret != st.MasterSecret {
			t.Errorf("%v: state mismatch after round trip: %+v", f, got)
		}
		// A different key with the same format must not open it.
		if other := Derive([]byte("other"), f); other.Open(tkt) != nil {
			t.Errorf("%v: foreign key opened the ticket", f)
		}
	}
}

func TestTamperRejection(t *testing.T) {
	st := testState()
	for _, f := range []Format{FormatRFC5077, FormatMbedTLS, FormatSChannel} {
		k := Derive([]byte("tamper"), f)
		tkt, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range []int{0, len(tkt) / 2, len(tkt) - 1} {
			mut := append([]byte(nil), tkt...)
			mut[pos] ^= 0x01
			if k.Open(mut) != nil {
				t.Errorf("%v: accepted ticket with byte %d flipped", f, pos)
			}
		}
		if k.Open(tkt[:len(tkt)-5]) != nil {
			t.Errorf("%v: accepted truncated ticket", f)
		}
		if k.Open(nil) != nil {
			t.Errorf("%v: accepted empty ticket", f)
		}
	}
}

func TestExtractKeyID(t *testing.T) {
	st := testState()

	// RFC 5077: the 16-byte key name leads the ticket.
	k16 := Derive([]byte("a"), FormatRFC5077)
	tkt, err := k16.Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if id := ExtractKeyID(tkt); !bytes.Equal(id, k16.Name) || len(id) != 16 {
		t.Errorf("rfc5077 key ID = %x, want name %x", id, k16.Name)
	}

	// SChannel: magic precedes the 16-byte GUID.
	ks := Derive([]byte("a"), FormatSChannel)
	tkt, err = ks.Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if id := ExtractKeyID(tkt); !bytes.Equal(id, ks.Name) {
		t.Errorf("schannel key ID = %x, want GUID %x", id, ks.Name)
	}
}

func TestDetectKeyID(t *testing.T) {
	st := testState()
	for _, tc := range []struct {
		format Format
		idLen  int
	}{
		{FormatRFC5077, 16},
		{FormatMbedTLS, 4},
		{FormatSChannel, 20},
	} {
		k := Derive([]byte("detect"), tc.format)
		t1, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		id := DetectKeyID(t1, t2)
		if len(id) != tc.idLen {
			t.Errorf("%v: key ID length %d, want %d", tc.format, len(id), tc.idLen)
		}
		// Tickets under different keys share no ID — including the
		// SChannel case, where both carry the same 4-byte magic.
		k2 := Derive([]byte("detect-2"), tc.format)
		t3, err := k2.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if id := DetectKeyID(t1, t3); id != nil {
			t.Errorf("%v: cross-key detection returned %x, want nil", tc.format, id)
		}
	}
}

func TestStaticManager(t *testing.T) {
	mgr := NewStatic([]byte("static"), FormatRFC5077)
	now := simclock.Epoch
	tkt, err := mgr.IssuingKey(now).Seal(testState(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A static key never rotates: still accepted years later.
	if mgr.LookupKey(tkt, now.AddDate(2, 0, 0)) == nil {
		t.Error("static key rejected its own ticket")
	}
	if keys := mgr.ActiveKeys(now); len(keys) != 1 {
		t.Errorf("static manager has %d active keys, want 1", len(keys))
	}
}

func TestRotatingPreviousKeyWindow(t *testing.T) {
	base := simclock.Epoch
	mgr := &Rotating{
		Seed: []byte("rot"), Base: base, Period: 14 * time.Hour,
		AcceptPrevious: 1, Format: FormatRFC5077,
	}
	tkt, err := mgr.IssuingKey(base).Seal(testState(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Accepted through its own epoch and one successor (Google's 14h+1).
	for _, d := range []time.Duration{time.Hour, 13 * time.Hour, 20 * time.Hour, 27 * time.Hour} {
		if mgr.LookupKey(tkt, base.Add(d)) == nil {
			t.Errorf("ticket rejected at +%v, inside the acceptance window", d)
		}
	}
	// Rejected two epochs later.
	if mgr.LookupKey(tkt, base.Add(29*time.Hour)) != nil {
		t.Error("ticket accepted after the previous-key window closed")
	}
	// Issuing keys differ across epochs.
	k0 := mgr.IssuingKey(base)
	k1 := mgr.IssuingKey(base.Add(14 * time.Hour))
	if bytes.Equal(k0.Name, k1.Name) {
		t.Error("rotation produced identical key names across epochs")
	}
	// Both current and previous keys are active inside an epoch.
	if keys := mgr.ActiveKeys(base.Add(20 * time.Hour)); len(keys) != 2 {
		t.Errorf("active keys = %d, want 2 (current + previous)", len(keys))
	}
}

func TestRotatingDeterminism(t *testing.T) {
	base := simclock.Epoch
	a := &Rotating{Seed: []byte("same"), Base: base, Period: time.Hour, Format: FormatMbedTLS}
	b := &Rotating{Seed: []byte("same"), Base: base, Period: time.Hour, Format: FormatMbedTLS}
	at := base.Add(90 * time.Minute)
	if !bytes.Equal(a.IssuingKey(at).Name, b.IssuingKey(at).Name) {
		t.Error("identically-seeded managers derived different keys")
	}
}

// TestOpenTicketIntoCountsOutcomes requires every STEK manager to report
// each resumption decrypt outcome on the process registry: a ticket it
// sealed counts one ticket/open_ok, a foreign ticket one ticket/open_miss.
func TestOpenTicketIntoCountsOutcomes(t *testing.T) {
	st := testState()
	now := simclock.Epoch.Add(90 * time.Minute)
	foreign, err := Derive([]byte("count-foreign"), FormatRFC5077).Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mgr  Manager
	}{
		{"static", NewStatic([]byte("count-static"), FormatRFC5077)},
		{"rotating", &Rotating{Seed: []byte("count-rotating"), Base: simclock.Epoch, Period: time.Hour, AcceptPrevious: 1, Format: FormatRFC5077}},
	} {
		own, err := tc.mgr.IssuingKey(now).Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		restore := telemetry.SetGlobal(reg)
		var dst session.State
		opened := tc.mgr.OpenTicketInto(&dst, own, now)
		rejected := !tc.mgr.OpenTicketInto(&dst, foreign, now)
		restore()
		if !opened || !rejected {
			t.Fatalf("%s: own ticket opened %v, foreign ticket rejected %v", tc.name, opened, rejected)
		}
		if ok, miss := reg.Value("ticket/open_ok"), reg.Value("ticket/open_miss"); ok != 1 || miss != 1 {
			t.Errorf("%s: counted %d ok and %d miss, want 1 and 1", tc.name, ok, miss)
		}
	}
}
