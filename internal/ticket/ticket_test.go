package ticket

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
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
	tkt, err := mgr.IssuingKey(now, nil).Seal(testState(), rand.Reader)
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
	tkt, err := mgr.IssuingKey(base, nil).Seal(testState(), rand.Reader)
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
	k0 := mgr.IssuingKey(base, nil)
	k1 := mgr.IssuingKey(base.Add(14*time.Hour), nil)
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
	if !bytes.Equal(a.IssuingKey(at, nil).Name, b.IssuingKey(at, nil).Name) {
		t.Error("identically-seeded managers derived different keys")
	}
}

// TestOpenTicketIntoCountsOutcomes requires every STEK manager to report
// each resumption decrypt outcome (the terminator counts these as
// ticket/open_ok or ticket/open_miss, which tlsserver's
// TestServeCountsTicketOpens checks), and to count the key derivations
// an issue or an open causes into the registry it is handed: a rotating
// manager derives the issuing key and the one previous key it accepts.
func TestOpenTicketIntoCountsOutcomes(t *testing.T) {
	st := testState()
	now := simclock.Epoch.Add(90 * time.Minute)
	foreign, err := Derive([]byte("count-foreign"), FormatRFC5077).Seal(st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mgr     Manager
		derived uint64
	}{
		{"static", NewStatic([]byte("count-static"), FormatRFC5077), 0},
		{"rotating", &Rotating{Seed: []byte("count-rotating"), Base: simclock.Epoch, Period: time.Hour, AcceptPrevious: 1, Format: FormatRFC5077}, 2},
	} {
		reg := telemetry.NewRegistry()
		own, err := tc.mgr.IssuingKey(now, reg).Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var dst session.State
		opened := tc.mgr.OpenTicketInto(&dst, own, now, reg)
		rejected := !tc.mgr.OpenTicketInto(&dst, foreign, now, nil)
		if !opened || !rejected {
			t.Fatalf("%s: own ticket opened %v, foreign ticket rejected %v", tc.name, opened, rejected)
		}
		if got := reg.Value("ticket/stek_derived"); got != tc.derived {
			t.Errorf("%s: counted %d key derivations, want %d", tc.name, got, tc.derived)
		}
	}
}

// TestSealMatchesStdlibCBCAndHMAC checks the hand-chained CBC and the
// stack HMAC against crypto/cipher and crypto/hmac: in every format the
// tag is HMAC-SHA256(MACKey, ticket without tag), and CBC-decrypting the
// body under the ticket's IV gives the marshaled state, PKCS#7-padded.
func TestSealMatchesStdlibCBCAndHMAC(t *testing.T) {
	st := testState()
	want := append(st.AppendMarshal(nil), bytes.Repeat([]byte{paddedStateLen - session.MarshaledLen}, paddedStateLen-session.MarshaledLen)...)
	for _, f := range []Format{FormatRFC5077, FormatMbedTLS, FormatSChannel} {
		k := Derive([]byte("stdlib"), f)
		tkt, err := k.Seal(st, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		body, tag := tkt[:len(tkt)-sha256.Size], tkt[len(tkt)-sha256.Size:]
		mac := hmac.New(sha256.New, k.MACKey[:])
		mac.Write(body)
		if !bytes.Equal(mac.Sum(nil), tag) {
			t.Errorf("%v: tag is not crypto/hmac's", f)
		}
		block, err := aes.NewCipher(k.AESKey[:])
		if err != nil {
			t.Fatal(err)
		}
		enc := body[headerLen(f)+aes.BlockSize+2:]
		plain := make([]byte, len(enc))
		cipher.NewCBCDecrypter(block, IVOf(tkt)).CryptBlocks(plain, enc)
		if !bytes.Equal(plain, want) {
			t.Errorf("%v: crypto/cipher decrypts the body to %x, want %x", f, plain, want)
		}
	}
}

// TestSealOpenAllocateNothing guards the ticket hot paths in every
// format: sealing into a buffer with room and opening into caller-owned
// state chain CBC through the key's block and MAC on the stack, so
// neither builds a cipher mode object or any other heap value.
func TestSealOpenAllocateNothing(t *testing.T) {
	st := testState()
	iv := drbg.NewString("ticket-test|iv")
	for _, f := range []Format{FormatRFC5077, FormatMbedTLS, FormatSChannel} {
		k := Derive([]byte("allocs"), f)
		buf := make([]byte, 0, k.SealedLen())
		var err error
		seal := func() {
			if buf, err = k.AppendSeal(buf[:0], st, iv); err != nil {
				t.Fatal(err)
			}
		}
		seal()
		if a := testing.AllocsPerRun(100, seal); a != 0 {
			t.Errorf("%v: a seal allocates %v objects, want 0", f, a)
		}
		var got session.State
		open := func() {
			if !k.OpenInto(&got, buf) {
				t.Fatal("the sealed ticket does not open")
			}
		}
		open()
		if a := testing.AllocsPerRun(100, open); a != 0 {
			t.Errorf("%v: an open allocates %v objects, want 0", f, a)
		}
	}
}
