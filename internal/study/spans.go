package study

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// Span is one secret's observation record: Days has bit d set when
// Domain presented the secret with this ID on virtual day d (campaigns
// are capped at 64 days).
type Span struct {
	Domain string
	ID     string
	Days   uint64
}

// Spans is one mechanism's secret-ID observations, one row per (domain,
// secret ID), sorted by Domain and then ID — the key order encoding/json
// writes a map in, so the table serializes to exactly the nested object
// a map[string]map[string]uint64 would: {"domain":{"id":days,...},...}.
// Every path that builds a table leaves it sorted: the campaign fold
// sorts once when the campaign finishes, UnmarshalJSON reads sorted
// bytes or sorts what it decodes, and MergeDatasets merges sorted shards.
//
// A nil table encodes as null and an empty one as {}, as nil and empty
// maps do. A domain with no IDs has no rows, so the table cannot hold
// the {"domain":{}} shape; decoding one is an error.
type Spans []Span

func compareSpans(a, b Span) int {
	if c := cmp.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// spanKey is a (domain, ID) pair of the campaign fold's running tables.
type spanKey struct{ domain, id string }

// sortedSpans materializes a fold table as Spans; an empty fold gives an
// empty (not nil) table.
func sortedSpans(m map[spanKey]uint64) Spans {
	s := make(Spans, 0, len(m))
	for k, days := range m {
		s = append(s, Span{Domain: k.domain, ID: k.id, Days: days})
	}
	slices.SortFunc(s, compareSpans)
	return s
}

// MarshalJSON writes the table as the nested object encoding/json writes
// for the equivalent map: it sizes the output, then appends the rows in
// order. A table out of order is an error.
func (s Spans) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	n := 2
	for i := range s {
		if i == 0 || s[i].Domain != s[i-1].Domain {
			n += len(s[i].Domain) + 5 // "domain":{ ... },
		}
		n += len(s[i].ID) + 4 + decimalLen(s[i].Days) // "id":days,
	}
	b := make([]byte, 0, n)
	b = append(b, '{')
	for i := range s {
		r := &s[i]
		if i > 0 && compareSpans(s[i-1], *r) >= 0 {
			return nil, fmt.Errorf("study: spans not sorted at row %d (%q, %q)", i, r.Domain, r.ID)
		}
		switch {
		case i == 0:
			b = appendKey(b, r.Domain)
			b = append(b, ':', '{')
		case r.Domain != s[i-1].Domain:
			b = append(b, '}', ',')
			b = appendKey(b, r.Domain)
			b = append(b, ':', '{')
		default:
			b = append(b, ',')
		}
		b = appendKey(b, r.ID)
		b = append(b, ':')
		b = strconv.AppendUint(b, r.Days, 10)
	}
	if len(s) > 0 {
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func decimalLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// appendKey appends s as a JSON string. Keys of printable ASCII that
// encoding/json leaves unescaped are copied; anything else goes through
// encoding/json, so the escaping matches its map-key output exactly.
func appendKey(b []byte, s string) []byte {
	if plain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// plain reports whether encoding/json writes s verbatim: printable ASCII
// without the quote, the backslash, or the HTML-escaped <, > and &.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// UnmarshalJSON replaces the table with the rows of a nested object. The
// bytes Save writes — no whitespace or escapes, keys strictly increasing,
// plain decimal days — are read in one pass by the dataset reader; any
// other input is decoded by encoding/json as a map and sorted, so
// whatever it accepts or rejects, the table does too.
func (s *Spans) UnmarshalJSON(data []byte) error {
	p := &reader{b: data}
	if rows := p.spans(); p.done() {
		*s = rows
		return nil
	}
	var m map[string]map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*s = nil
		return nil
	}
	rows := make(Spans, 0, len(m))
	for domain, ids := range m {
		if len(ids) == 0 {
			return fmt.Errorf("study: spans for %q hold no secret IDs", domain)
		}
		for id, days := range ids {
			rows = append(rows, Span{Domain: domain, ID: id, Days: days})
		}
	}
	slices.SortFunc(rows, compareSpans)
	*s = rows
	return nil
}

// spans reads the bytes MarshalJSON writes for a sorted table, failing
// on a domain or an ID out of order.
func (p *reader) spans() Spans {
	if p.opt("null") {
		return nil
	}
	p.want("{")
	if p.lit('}') {
		return Spans{}
	}
	// Up to the "}}" that closes the last domain and the table, Save's
	// bytes hold one colon per domain and per row and one opening brace
	// per domain: size the table exactly.
	rest := p.ahead("}}")
	rows := make(Spans, 0, max(bytes.Count(rest, []byte{':'})-bytes.Count(rest, []byte{'{'}), 0))
	for !p.bad {
		domain := p.name()
		if len(rows) > 0 && rows[len(rows)-1].Domain >= domain {
			p.fail()
		}
		p.want(":{")
		for first := true; !p.bad; first = false {
			id := p.str()
			p.want(":")
			days := p.uint()
			if !first && rows[len(rows)-1].ID >= id {
				p.fail()
			}
			rows = append(rows, Span{Domain: domain, ID: id, Days: days})
			if p.lit('}') {
				break
			}
			p.want(",")
		}
		if p.lit('}') {
			return rows
		}
		p.want(",")
	}
	return nil
}
