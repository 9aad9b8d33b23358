package study

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// checkDatasetJSON decodes data as Load does and, with encoding/json,
// into a fresh Dataset, and requires both to fail or both to give deeply
// equal datasets (reflect.DeepEqual tells a nil slice or map from an
// empty one).
func checkDatasetJSON(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeDataset(data)
	want := &Dataset{}
	jsonErr := json.Unmarshal(data, want)
	switch {
	case (err == nil) != (jsonErr == nil):
		t.Fatalf("%.300q: decode error %v, encoding/json error %v", data, err, jsonErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%.300q: decoded\n %+v\nencoding/json gives\n %+v", data, got, want)
	}
}

// FuzzDatasetJSON holds Load's decoding to encoding/json's on any input
// (see checkDatasetJSON). The committed seeds in
// testdata/fuzz/FuzzDatasetJSON hold a Save-written shard, a small
// dataset with every optional section, and inputs the one-pass reader
// leaves to encoding/json: whitespace, a reordered field, a lower-case
// field name, a duplicate map key, an escaped string, an int overflow,
// the floats 2e-4 and 1., trailing bytes, a truncation, and a ListSize
// of 2^62, which must not size anything.
func FuzzDatasetJSON(f *testing.F) {
	f.Fuzz(checkDatasetJSON)
}

// TestShardLoadSaveRoundTrip checks, for every dataset shape Run writes,
// that Load then Save reproduces the file byte for byte and that the
// one-pass reader, not encoding/json, reads it: studyrun -merge and
// cmd/report read saved datasets through Load, so the codec must lose
// nothing, and a field Save starts writing that the reader does not know
// fails here instead of quietly sending Load back to encoding/json.
func TestShardLoadSaveRoundTrip(t *testing.T) {
	shard := detOpts
	shard.Shard = &ShardSpec{Index: 1, Count: 3}
	hostile := hostileOpts()
	rows := []struct {
		name   string
		o      Options
		shaped func(*Dataset) bool // the row holds the fields it is there for
	}{
		{"golden", detOpts, func(d *Dataset) bool {
			return len(d.STEKSpans) > 0 && len(d.DHESpans) > 0 && len(d.ECDHESpans) > 0 && len(d.IDLifetime) > 0
		}},
		{"shard", shard, func(d *Dataset) bool { return d.Shard != nil && d.XDStats != nil }},
		{"hostile", hostile, func(d *Dataset) bool {
			return d.FaultPlan != nil && len(d.Failures) > 0 && len(d.MissedDays) > 0 && d.Crypt != nil
		}},
		{"traffic", trafficOpts(), func(d *Dataset) bool { return d.Traffic != nil }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ds, h := runAndHash(t, row.o)
			if row.name == "golden" && h != golden(t) {
				t.Fatalf("campaign drifted from golden: %s", h)
			}
			dir := t.TempDir()
			first, second := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
			if err := ds.Save(first); err != nil {
				t.Fatal(err)
			}
			a, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := readDataset(a); !ok {
				t.Fatal("the one-pass reader left a Save-written dataset to encoding/json")
			}
			checkDatasetJSON(t, a)
			loaded, err := Load(first)
			if err != nil {
				t.Fatal(err)
			}
			if !row.shaped(loaded) {
				t.Fatal("the dataset lacks the fields this row covers")
			}
			if err := loaded.Save(second); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("Load then Save changed the dataset: %d bytes, then %d", len(a), len(b))
			}
		})
	}
}
