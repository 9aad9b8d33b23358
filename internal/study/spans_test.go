package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// checkSpansJSON decodes data both as Spans and, with encoding/json, as
// the map the table replaces, and requires them to agree: the same rows
// when the map decodes (or a clean error when it holds a domain with no
// IDs, a shape the table cannot hold), a rejection when it does not, and
// a re-encoding equal to encoding/json's bytes for the map, null versus
// {} included.
func checkSpansJSON(t *testing.T, data []byte) {
	t.Helper()
	var m map[string]map[string]uint64
	mapErr := json.Unmarshal(data, &m)
	var s, viaJSON Spans
	err := s.UnmarshalJSON(data)
	jsonErr := json.Unmarshal(data, &viaJSON)
	if mapErr != nil {
		if err == nil || jsonErr == nil {
			t.Fatalf("%q: encoding/json rejects it (%v) but Spans decoded %v / %v", data, mapErr, s, viaJSON)
		}
		return
	}
	holdable := true
	for _, ids := range m {
		holdable = holdable && len(ids) > 0
	}
	if !holdable {
		if err == nil || jsonErr == nil {
			t.Fatalf("%q: a domain with no IDs decoded as %v / %v", data, s, viaJSON)
		}
		return
	}
	if err != nil || jsonErr != nil {
		t.Fatalf("%q: encoding/json decodes it but Spans failed: %v / %v", data, err, jsonErr)
	}
	var want Spans
	if m != nil {
		want = Spans{}
		for d, ids := range m {
			for id, days := range ids {
				want = append(want, Span{d, id, days})
			}
		}
		slices.SortFunc(want, compareSpans)
	}
	for _, got := range []Spans{s, viaJSON} {
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%q: rows %v (nil %v), want %v (nil %v)", data, got, got == nil, want, want == nil)
		}
	}
	wantB, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("%q: re-encode: %v", data, err)
	}
	viaB, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("%q: json.Marshal: %v", data, err)
	}
	if !bytes.Equal(gotB, wantB) || !bytes.Equal(viaB, wantB) {
		t.Fatalf("%q: re-encoded as %s / %s, encoding/json writes %s", data, gotB, viaB, wantB)
	}
}

// FuzzSpansJSON holds the span codec to encoding/json's map codec on any
// input (see checkSpansJSON). The committed seeds in
// testdata/fuzz/FuzzSpansJSON hold a Save-written fragment and each
// input the one-pass reader leaves to encoding/json: escapes, unsorted
// and duplicate keys, null, whitespace and a uint64 overflow.
func FuzzSpansJSON(f *testing.F) {
	f.Fuzz(checkSpansJSON)
}

// TestShardSpansCodec runs the codec property over the shapes a shard
// file can hold and pins which of them the one-pass reader takes: every
// table MarshalJSON writes, and nothing that needs encoding/json.
func TestShardSpansCodec(t *testing.T) {
	written := []Spans{
		nil,
		{},
		{{"a.example", "00ff", 1}},
		{{"a.example", "01", 3}, {"a.example", "02", 1 << 63}, {"b.example", "01", 5}},
		{{"a.example", "x", 0}, {"site-000001.example", "deadbeefdeadbeef", 4095}},
		{{"<a>", "&", 1}, {"é", "\"\\\n", 2}}, // encoded with escapes
	}
	for _, s := range written {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		checkSpansJSON(t, b)
		p := &reader{b: b}
		rows := p.spans()
		ok := p.done()
		escaped := bytes.IndexByte(b, '\\') >= 0
		if ok == escaped {
			t.Fatalf("%s: one-pass reader took it = %v, escapes = %v", b, ok, escaped)
		}
		if ok && (!slices.Equal(rows, s) || (rows == nil) != (s == nil)) {
			t.Fatalf("%s: one-pass reader gave %v, want %v", b, rows, s)
		}
	}
	for _, in := range []string{
		` {"a":{"k":1}}`,                       // whitespace
		`{"a" : {"k":1} }`,                     // whitespace
		`{"b":{"k":1},"a":{"k":2}}`,            // unsorted domains
		`{"a":{"k2":1,"k1":2}}`,                // unsorted IDs
		`{"a":{"k":1,"k":2}}`,                  // duplicate ID
		`{"a":{"k":1},"a":{"j":2}}`,            // duplicate domain
		`{"a":{"k":18446744073709551615}}`,     // max uint64
		`{"a":{"k":18446744073709551616}}`,     // uint64 overflow
		`{"a":{"k":01}}`,                       // leading zero
		`{"a":{"k":-1}}`,                       // sign
		`{"a":{"k":1.0}}`,                      // fraction
		`{"a":{}}`,                             // domain with no IDs
		`{"a":null}`,                           // domain with no IDs
		`{"a":{"k":1}}x`,                       // trailing bytes
		`{"a":{"k":1}`,                         // truncated
		`{"\u0061":{"k":1}}`,                   // escaped key
		`[]`, `"x"`, `1`, ``, `nul`, `{"a":1}`, // wrong shapes
	} {
		checkSpansJSON(t, []byte(in))
	}
}

// TestShardSpansFoldSorted checks that the campaign fold's table comes
// out in (Domain, ID) order with each pair once, and that merging
// tables rejects a shard out of that order.
func TestShardSpansFoldSorted(t *testing.T) {
	m := map[spanKey]uint64{}
	for i := 0; i < 200; i++ {
		m[spanKey{fmt.Sprintf("d%d.example", i%17), fmt.Sprintf("%x", i*7919%251)}] |= 1 << uint(i%9)
	}
	s := sortedSpans(m)
	if len(s) != len(m) || !slices.IsSortedFunc(s, compareSpans) {
		t.Fatalf("fold table: %d rows of %d, sorted %v", len(s), len(m), slices.IsSortedFunc(s, compareSpans))
	}
	for i := 1; i < len(s); i++ {
		if compareSpans(s[i-1], s[i]) == 0 {
			t.Fatalf("row %d repeats (%q, %q)", i, s[i].Domain, s[i].ID)
		}
	}
	if empty := sortedSpans(nil); empty == nil {
		t.Fatal("an empty fold must give an empty table, not nil (it serializes as {})")
	}

	a, b := mkShard(0, 2), mkShard(1, 2)
	a.ECDHESpans = Spans{{"b.example", "v", 1}, {"a.example", "v", 1}}
	if _, err := MergeDatasets(a, b); err == nil {
		t.Fatal("want rejection of an unsorted shard table")
	}
	a.ECDHESpans = Spans{{"a.example", "v", 1}, {"a.example", "v", 2}}
	if _, err := MergeDatasets(a, b); err == nil {
		t.Fatal("want rejection of a shard table repeating a row")
	}
	if _, err := json.Marshal(Spans{{"b", "k", 1}, {"a", "k", 1}}); err == nil {
		t.Fatal("want an encoding error for an unsorted table")
	}
}

// TestMergeSpansInterleaved merges round-robin shard tables, as a
// sharded campaign produces them, and compares the result with the
// sorted union; a domain in two shards is rejected wherever it falls.
func TestMergeSpansInterleaved(t *testing.T) {
	const shards = 3
	var all Spans
	parts := make([]*Dataset, shards)
	for i := range parts {
		parts[i] = mkShard(i, shards)
	}
	for d := 0; d < 40; d++ {
		domain := fmt.Sprintf("site-%06d.example", d*37%101)
		for k := 0; k <= d%3; k++ {
			r := Span{domain, fmt.Sprintf("%016x", d*1000+k), uint64(d+1) << uint(k)}
			all = append(all, r)
			parts[d%shards].DHESpans = append(parts[d%shards].DHESpans, r)
		}
	}
	slices.SortFunc(all, compareSpans)
	for _, p := range parts {
		slices.SortFunc(p.DHESpans, compareSpans)
	}
	m, err := MergeDatasets(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.DHESpans, all) {
		t.Fatalf("merged table differs from the sorted union:\n got  %v\n want %v", m.DHESpans, all)
	}
	if m.STEKSpans == nil || len(m.STEKSpans) != 0 {
		t.Fatalf("merging empty tables must give an empty table, got %v (nil %v)", m.STEKSpans, m.STEKSpans == nil)
	}

	// The same domain in the first and last shard, with IDs that sort
	// between each other: the overlap is still adjacent in the merge.
	r := parts[0].DHESpans[0]
	parts[2].DHESpans = append(Spans{{r.Domain, r.ID + "0", 1}}, parts[2].DHESpans...)
	slices.SortFunc(parts[2].DHESpans, compareSpans)
	if _, err := MergeDatasets(parts...); err == nil {
		t.Fatal("want rejection of a domain in two shards")
	}
}
