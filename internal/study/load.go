package study

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"tlsshortcuts/internal/cryptanalysis"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/scanner"
	"tlsshortcuts/internal/traffic"
)

// decodeDataset decodes a saved dataset: in one pass when the bytes are
// exactly what Save writes, and with encoding/json otherwise, so it
// accepts and rejects what encoding/json does and decodes to an equal
// Dataset.
func decodeDataset(b []byte) (*Dataset, error) {
	if d, ok := readDataset(b); ok {
		return d, nil
	}
	d := &Dataset{}
	if err := json.Unmarshal(b, d); err != nil {
		return nil, err
	}
	return d, nil
}

// readDataset reads the bytes Save writes: fields in declaration order,
// the omitempty ones only when present, map keys sorted, and no
// whitespace. The FaultPlan, Crypt and Traffic sections go to
// encoding/json as byte ranges; every other field is filled here, with
// each domain name allocated once. It reports false on any byte it does
// not expect.
func readDataset(b []byte) (*Dataset, bool) {
	p := &reader{b: b}
	d := &Dataset{}
	p.want(`{"ListSize":`)
	d.ListSize = p.int()
	// Every listed domain has a Ranks entry of at least five bytes, so
	// ListSize, bounded by that, sizes the name table without trusting a
	// claim the input cannot hold.
	p.names = make(map[string]string, min(max(d.ListSize, 0), len(b)/len(`"":0,`)))
	p.want(`,"Days":`)
	d.Days = p.int()
	p.want(`,"Seed":`)
	d.Seed = p.int64()
	p.want(`,"ScaleFactor":`)
	d.ScaleFactor = p.float()
	p.want(`,"TrustedCore":`)
	d.TrustedCore = p.nameList()
	p.want(`,"Operators":`)
	d.Operators = dict(p, p.str)
	p.want(`,"Ranks":`)
	d.Ranks = dict(p, p.int)
	p.want(`,"TicketSnapshot":`)
	p.snapshot(&d.TicketSnapshot)
	p.want(`,"DHESnapshot":`)
	p.snapshot(&d.DHESnapshot)
	p.want(`,"ECDHESnapshot":`)
	p.snapshot(&d.ECDHESnapshot)
	p.want(`,"STEKSpans":`)
	d.STEKSpans = p.spans()
	p.want(`,"DHESpans":`)
	d.DHESpans = p.spans()
	p.want(`,"ECDHESpans":`)
	d.ECDHESpans = p.spans()
	p.want(`,"IDLifetime":`)
	d.IDLifetime = list(p, "},{", "}]", p.probe)
	p.want(`,"TicketLifetime":`)
	d.TicketLifetime = list(p, "},{", "}]", p.probe)
	p.want(`,"CacheGroups":`)
	d.CacheGroups = list(p, "],[", "]]", p.nameList)
	p.want(`,"STEKGroups":`)
	d.STEKGroups = list(p, "],[", "]]", p.nameList)
	p.want(`,"DHGroups":`)
	d.DHGroups = list(p, "],[", "]]", p.nameList)
	p.want(`,"DHSingleton":`)
	d.DHSingleton = p.int()
	if p.opt(`,"FaultPlan":`) {
		d.FaultPlan = &faults.Options{}
		p.unmarshal(d.FaultPlan)
	}
	if p.opt(`,"Failures":`) {
		d.Failures = list(p, "},{", "}]", p.failure)
	}
	if p.opt(`,"MissedDays":`) {
		d.MissedDays = dict(p, p.uint)
	}
	if p.opt(`,"XDStats":`) {
		x := &scanner.XDStats{}
		p.want(`{"Probed":`)
		x.Probed = p.int()
		p.want(`,"Sessioned":`)
		x.Sessioned = p.int()
		p.want(`,"InitFailed":`)
		x.InitFailed = p.int()
		p.want(`,"ProbeFailed":`)
		x.ProbeFailed = p.int()
		p.want(`}`)
		d.XDStats = x
	}
	if p.opt(`,"Crypt":`) {
		d.Crypt = &cryptanalysis.Findings{}
		p.unmarshal(d.Crypt)
	}
	if p.opt(`,"Traffic":`) {
		d.Traffic = &traffic.Results{}
		p.unmarshal(d.Traffic)
	}
	if p.opt(`,"Shard":`) {
		d.Shard = &ShardSpec{}
		p.want(`{"Index":`)
		d.Shard.Index = p.int()
		p.want(`,"Count":`)
		d.Shard.Count = p.int()
		p.want(`}`)
	}
	p.want(`}`)
	return d, p.done()
}

// reader parses encoding/json's compact output for the types Save
// writes. The first unexpected byte marks it bad and moves it to the end
// of the input, so every later read fails too and the caller needs to
// check only once, with done.
type reader struct {
	b     []byte
	off   int
	bad   bool
	names map[string]string // interned domain names; nil reads each afresh
}

func (p *reader) fail() {
	p.bad = true
	p.off = len(p.b)
}

// done reports whether the whole input was read without a fault.
func (p *reader) done() bool { return !p.bad && p.off == len(p.b) }

// lit consumes c if it is the next byte.
func (p *reader) lit(c byte) bool {
	if p.off < len(p.b) && p.b[p.off] == c {
		p.off++
		return true
	}
	return false
}

// opt consumes s if it comes next.
func (p *reader) opt(s string) bool {
	if bytes.HasPrefix(p.b[p.off:], []byte(s)) {
		p.off += len(s)
		return true
	}
	return false
}

// want consumes s, failing if it does not come next.
func (p *reader) want(s string) {
	if !p.opt(s) {
		p.fail()
	}
}

// ahead returns the unread bytes up to the first end. In Save's bytes
// that is the rest of the collection being read, whose separators count
// its elements; on other input the count is only a size hint, and never
// more than the input holds.
func (p *reader) ahead(end string) []byte {
	rest := p.b[p.off:]
	if i := bytes.Index(rest, []byte(end)); i >= 0 {
		return rest[:i]
	}
	return rest
}

// raw reads a string encoding/json writes verbatim (see plain) and
// returns its bytes.
func (p *reader) raw() []byte {
	b := p.b[p.off:]
	i := 1
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	if len(b) == 0 || b[0] != '"' || i == len(b) || b[i] != '"' {
		p.fail()
		return nil
	}
	p.off += i + 1
	return b[1:i]
}

func (p *reader) str() string { return string(p.raw()) }

// name reads a domain name, returning one shared copy of each.
func (p *reader) name() string {
	b := p.raw()
	if p.names == nil {
		return string(b)
	}
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	p.names[s] = s
	return s
}

// nameList reads an array of names.
func (p *reader) nameList() []string { return list(p, `","`, `"]`, p.name) }

// uint reads a decimal uint64 without sign, fraction, exponent or
// leading zero.
func (p *reader) uint() uint64 {
	b := p.b[p.off:]
	var v uint64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.fail()
			return 0
		}
		v = v*10 + d
	}
	if i == 0 || i > 1 && b[0] == '0' {
		p.fail()
		return 0
	}
	p.off += i
	return v
}

// int64 reads a uint with an optional minus sign.
func (p *reader) int64() int64 {
	neg := p.lit('-')
	v := p.uint()
	switch {
	case !neg && v <= math.MaxInt64:
		return int64(v)
	case neg && v <= 1<<63:
		return int64(-v)
	}
	p.fail()
	return 0
}

// int reads an int64 that fits an int.
func (p *reader) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.fail()
	}
	return int(v)
}

// float reads a JSON number and converts it as encoding/json does.
func (p *reader) float() float64 {
	start := p.off
	p.lit('-')
	if !p.lit('0') {
		p.digits()
	}
	if p.lit('.') {
		p.digits()
	}
	if p.lit('e') || p.lit('E') {
		_ = p.lit('+') || p.lit('-')
		p.digits()
	}
	if p.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.off]), 64)
	if err != nil {
		p.fail()
	}
	return v
}

// digits reads one or more decimal digits.
func (p *reader) digits() {
	start := p.off
	for p.off < len(p.b) && '0' <= p.b[p.off] && p.b[p.off] <= '9' {
		p.off++
	}
	if p.off == start {
		p.fail()
	}
}

func (p *reader) bool() bool {
	if p.opt("true") {
		return true
	}
	p.want("false")
	return false
}

// list reads an array of elem, or null as nil. In Save's bytes sep
// stands between each two elements and nowhere else before end, the
// bytes that close the array.
func list[T any](p *reader, sep, end string, elem func() T) []T {
	if p.opt("null") {
		return nil
	}
	p.want("[")
	if p.lit(']') {
		return []T{}
	}
	s := make([]T, 0, bytes.Count(p.ahead(end), []byte(sep))+1)
	for !p.bad {
		s = append(s, elem())
		if p.lit(']') {
			return s
		}
		p.want(",")
	}
	return nil
}

// dict reads an object with name keys and val values, or null as nil.
// In Save's bytes no key or value holds a colon or a closing brace, so
// the colons before the first brace count the entries. A repeated key
// keeps its last value, as encoding/json's does.
func dict[V any](p *reader, val func() V) map[string]V {
	if p.opt("null") {
		return nil
	}
	p.want("{")
	m := make(map[string]V, bytes.Count(p.ahead("}"), []byte{':'}))
	if p.lit('}') {
		return m
	}
	for !p.bad {
		k := p.name()
		p.want(":")
		m[k] = val()
		if p.lit('}') {
			return m
		}
		p.want(",")
	}
	return nil
}

// unmarshal hands the object at the read position to encoding/json. Only
// strings and nesting are tracked to find its end: encoding/json checks
// the rest.
func (p *reader) unmarshal(v any) {
	start := p.off
	if !p.lit('{') {
		p.fail()
		return
	}
	for depth := 1; depth > 0; p.off++ {
		if p.off >= len(p.b) {
			p.fail()
			return
		}
		switch p.b[p.off] {
		case '"':
			for p.off++; p.off < len(p.b) && p.b[p.off] != '"'; p.off++ {
				if p.b[p.off] == '\\' {
					p.off++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	if json.Unmarshal(p.b[start:p.off], v) != nil {
		p.fail()
	}
}

func (p *reader) snapshot(s *Snapshot) {
	p.want(`{"Scanned":`)
	s.Scanned = p.int()
	p.want(`,"Trusted":`)
	s.Trusted = p.int()
	p.want(`,"Support":`)
	s.Support = p.int()
	p.want(`,"Reuse2x":`)
	s.Reuse2x = p.int()
	if p.opt(`,"PairFailed":`) {
		s.PairFailed = p.int()
	}
	p.want(`}`)
}

func (p *reader) probe() scanner.ProbeResult {
	var r scanner.ProbeResult
	p.want(`{"Domain":`)
	r.Domain = p.name()
	p.want(`,"OK":`)
	r.OK = p.bool()
	p.want(`,"ResumedAt1s":`)
	r.ResumedAt1s = p.bool()
	p.want(`,"MaxDelay":`)
	r.MaxDelay = time.Duration(p.int64())
	p.want(`,"Hint":`)
	r.Hint = time.Duration(p.int64())
	if p.opt(`,"ErrClass":`) {
		r.ErrClass = faults.ErrClass(p.str())
	}
	p.want(`}`)
	return r
}

func (p *reader) failure() FailureCount {
	var f FailureCount
	p.want(`{"Scan":`)
	f.Scan = p.str()
	p.want(`,"Class":`)
	f.Class = p.str()
	p.want(`,"Count":`)
	f.Count = p.int()
	p.want(`}`)
	return f
}
