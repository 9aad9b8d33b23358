package obsv

import (
	"bytes"
	"encoding/json"
	"testing"
)

// encodeEvents writes events as JSONL, one encoding/json line each.
func encodeEvents(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzJournal feeds arbitrary bytes to the journal readers: DecodeEvents,
// ValidateJournal and MergeJournalsDeterministic must not panic. A
// journal DecodeEvents accepts must merge with itself exactly when it
// validates, and must re-encode to JSONL that decodes again and then
// encodes to the same bytes (one round maps an empty map to an absent
// one, so the events of the first decode may differ from the second
// only there). The committed seeds in testdata/fuzz/FuzzJournal hold a
// completed and an aborted campaign's journal as Journal writes them, a
// journal with a sequence gap, an event from a newer schema, a
// truncated line and a line that is not JSON.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		valid := ValidateJournal(events) == nil
		merged, err := MergeJournalsDeterministic(events, events)
		if valid != (err == nil) {
			t.Fatalf("journal validates: %v, but merging it with itself gives %v", valid, err)
		}
		if err == nil && len(merged) != len(events) {
			t.Fatalf("%d events merged with themselves into %d", len(events), len(merged))
		}

		first := encodeEvents(t, events)
		again, err := DecodeEvents(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v\n%s", err, first)
		}
		if len(again) != len(events) {
			t.Fatalf("%d events re-encoded decode to %d", len(events), len(again))
		}
		if second := encodeEvents(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", first, second)
		}
	})
}
