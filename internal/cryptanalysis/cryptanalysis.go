// Package cryptanalysis holds the scanner-side probes that turn captured
// tickets into attack evidence, modeling the weak-deployment findings of
// Hebrok et al. ("We Really Need to Talk About Session Tickets") and the
// Logjam common-prime precomputation:
//
//   - key-name reuse: one STEK key name observed at domains run by
//     unrelated operators — a shared or vendor-default key, so one leak
//     (or one crack) decrypts them all;
//   - weak-STEK recovery: a dictionary search over a low-entropy seed
//     space recovers the actual key, turning "looks weak" into "here is
//     the AES/HMAC key";
//   - keystream reuse: a repeated CBC IV under one key name (the AWS
//     fixed-IV flaw) — identical states seal to identical ciphertexts,
//     and differing states leak their first differing block;
//   - known-weak FFDH primes: an export-grade modulus from a registry of
//     shared primes, where one precomputation amortizes over every
//     domain serving it.
//
// The probes are pure functions over captured bytes: everything here is
// computable by a passive adversary with the recordings and public
// knowledge. Actual decryption yield is measured by internal/attacker's
// Replay against the keys recovered here.
package cryptanalysis

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"tlsshortcuts/internal/attacker"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/ticket"
)

// ---- weak-STEK seed space ----

// WeakSeedSpace is the size of the modeled low-entropy STEK seed space
// (12 bits). Real weak deployments drew keys from timestamps, PIDs, or
// default config strings; the dictionary stands in for that search.
const WeakSeedSpace = 4096

// WeakSeed returns the i'th member of the low-entropy seed space. The
// weak population profiles draw their STEK seeds from this space, and
// the cracking dictionary enumerates it.
func WeakSeed(i int) []byte {
	return []byte(fmt.Sprintf("weak-stek-%05d", i))
}

// Dictionary indexes every key name derivable from the weak seed space,
// in all three wire formats, by the seed that derives it: per format, a
// table of (name, seed) rows sorted by name, 221 KB in all, so no key is
// kept. Crack derives a key only for a row whose name the ticket carries
// and confirms it by an authenticated Open, so a name collision without
// the real key cannot produce a false crack. A name can have several
// rows (the 4-byte mbedTLS names may collide), which Crack tries in
// seed order.
type Dictionary struct {
	byFormat map[ticket.Format][]weakName
}

// weakName is one dictionary row: a key name, zero-padded to 16 bytes,
// and the index of the weak seed it derives from.
type weakName struct {
	name [16]byte
	seed uint16
}

func (r weakName) compare(name [16]byte) int { return bytes.Compare(r.name[:], name[:]) }

var (
	dictOnce sync.Once
	dict     *Dictionary
)

// Dict returns the process-wide weak-seed dictionary, built once
// (WeakSeedSpace seeds x 3 formats of key derivation, the modeled
// "offline" phase of the attack).
func Dict() *Dictionary {
	dictOnce.Do(func() {
		d := &Dictionary{byFormat: make(map[ticket.Format][]weakName, 3)}
		for _, f := range []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel} {
			rows := make([]weakName, WeakSeedSpace)
			for i := range rows {
				rows[i].seed = uint16(i)
				copy(rows[i].name[:], ticket.Derive(WeakSeed(i), f).Name)
			}
			slices.SortStableFunc(rows, func(a, b weakName) int { return a.compare(b.name) })
			d.byFormat[f] = rows
		}
		dict = d
	})
	return dict
}

// Crack attempts to recover the STEK that sealed tkt from the weak-seed
// space. It returns the key only when an authenticated decrypt succeeds.
func (d *Dictionary) Crack(tkt []byte) *ticket.STEK {
	f, ok := ticket.FormatOf(tkt)
	if !ok {
		return nil
	}
	var name [16]byte
	copy(name[:], ticket.KeyName(tkt))
	rows := d.byFormat[f]
	i, _ := slices.BinarySearchFunc(rows, name, weakName.compare)
	for ; i < len(rows) && rows[i].name == name; i++ {
		if k := ticket.Derive(WeakSeed(int(rows[i].seed)), f); k.Open(tkt) != nil {
			return k
		}
	}
	return nil
}

// SeedEntropyBits is the entropy upper bound a successful dictionary
// crack proves: the key was drawn from a space this many bits wide.
func SeedEntropyBits() float64 { return math.Log2(WeakSeedSpace) }

// ---- known-weak prime registry ----

// weakPrimes maps the big-endian bytes of registry primes to a short ID.
var weakPrimesOnce sync.Once
var weakPrimes map[string]string

// IsWeakPrime reports whether p (big-endian modulus bytes, as captured
// from a ServerKeyExchange) is in the known-weak prime registry, and its
// registry ID. The registry holds the shared export-grade prime — not
// every 512-bit modulus: membership models Logjam's "precomputation
// already done for this specific prime", which is what makes the attack
// cheap, whereas an unlisted prime still costs the full first phase.
func IsWeakPrime(p []byte) (string, bool) {
	weakPrimesOnce.Do(func() {
		weakPrimes = map[string]string{}
		eb, _ := ffdh.ExportGroup512().ParamBytes()
		weakPrimes[string(eb)] = "export512"
	})
	id, ok := weakPrimes[string(p)]
	return id, ok
}

// WeakPrimeBits returns the modulus width of a registry prime by ID.
func WeakPrimeBits(id string) int {
	if id == "export512" {
		return ffdh.ExportGroup512().P.BitLen()
	}
	return 0
}

// ---- campaign-wide findings index ----

// Findings is the cryptanalysis pass output carried in the dataset: flat
// per-domain primitives (so shard merge is a disjoint union) plus the
// replay yield. Groups — which domains share a key name, which keys
// repeat IVs — are re-derived from the merged maps at report time,
// mirroring how STEK groups are re-derived from spans.
type Findings struct {
	KeyNames  map[string]string   `json:",omitempty"` // domain -> hex key name of its issuing STEK
	IVs       map[string][]string `json:",omitempty"` // domain -> hex ticket IVs, in capture order
	Cracked   map[string]string   `json:",omitempty"` // domain -> hex key name of the recovered weak STEK
	WeakPrime map[string]string   `json:",omitempty"` // domain -> known-weak prime registry ID
	Yield     attacker.Yield      // measured decryption yield of the replay
}

// NewFindings returns an empty findings index.
func NewFindings() *Findings {
	return &Findings{
		KeyNames:  map[string]string{},
		IVs:       map[string][]string{},
		Cracked:   map[string]string{},
		WeakPrime: map[string]string{},
	}
}

// Merge folds o into f. Shards scan disjoint domain slices, so a domain
// appearing in both is a merge error.
func (f *Findings) Merge(o *Findings) error {
	for _, m := range []struct {
		dst, src map[string]string
	}{
		{f.KeyNames, o.KeyNames},
		{f.Cracked, o.Cracked},
		{f.WeakPrime, o.WeakPrime},
	} {
		for d, v := range m.src {
			if _, dup := m.dst[d]; dup {
				return fmt.Errorf("cryptanalysis: domain %s in multiple shards", d)
			}
			m.dst[d] = v
		}
	}
	for d, ivs := range o.IVs {
		if _, dup := f.IVs[d]; dup {
			return fmt.Errorf("cryptanalysis: domain %s in multiple shards", d)
		}
		f.IVs[d] = ivs
	}
	f.Yield.Add(o.Yield)
	return nil
}

// ---- derived probe analyses ----

// KeyNameGroup is one key name observed at more than one operator.
type KeyNameGroup struct {
	KeyName   string
	Operators []string
	Domains   []string
}

// SharedKeyNames indexes the per-domain key names against operator
// attribution and returns every key name served by two or more unrelated
// operators — the campaign-wide extension of DetectKeyID's pairwise
// evidence. Output is sorted for deterministic rendering.
func SharedKeyNames(keyNames map[string]string, operators map[string]string) []KeyNameGroup {
	byName := map[string]map[string]bool{} // key name -> operator set
	domains := map[string][]string{}       // key name -> domains
	for d, name := range keyNames {
		if byName[name] == nil {
			byName[name] = map[string]bool{}
		}
		byName[name][operators[d]] = true
		domains[name] = append(domains[name], d)
	}
	var out []KeyNameGroup
	for name, ops := range byName {
		if len(ops) < 2 {
			continue
		}
		g := KeyNameGroup{KeyName: name, Domains: domains[name]}
		for op := range ops {
			g.Operators = append(g.Operators, op)
		}
		sort.Strings(g.Operators)
		sort.Strings(g.Domains)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].KeyName < out[j].KeyName })
	return out
}

// KeystreamFinding is one STEK observed sealing with a repeated CBC IV.
type KeystreamFinding struct {
	KeyName string
	IV      string
	Domains []string // domains whose captures carry the repeated IV
	Count   int      // total occurrences of the IV under the key
}

// KeystreamReuse scans the per-domain IV observations for IVs repeated
// under one key name. With CBC, a repeated IV under one key reveals
// whether two sealed states share a prefix block-by-block — and these
// deployments seal predictable state, so the finding is decryptable
// structure, not a nonce-hygiene footnote.
func KeystreamReuse(ivs map[string][]string, keyNames map[string]string) []KeystreamFinding {
	type kiv struct{ name, iv string }
	count := map[kiv]int{}
	where := map[kiv]map[string]bool{}
	for d, list := range ivs {
		name, ok := keyNames[d]
		if !ok {
			continue
		}
		for _, iv := range list {
			k := kiv{name, iv}
			count[k]++
			if where[k] == nil {
				where[k] = map[string]bool{}
			}
			where[k][d] = true
		}
	}
	var out []KeystreamFinding
	for k, c := range count {
		if c < 2 {
			continue
		}
		f := KeystreamFinding{KeyName: k.name, IV: k.iv, Count: c}
		for d := range where[k] {
			f.Domains = append(f.Domains, d)
		}
		sort.Strings(f.Domains)
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].KeyName != out[j].KeyName {
			return out[i].KeyName < out[j].KeyName
		}
		return out[i].IV < out[j].IV
	})
	return out
}

// ShannonBitsPerByte estimates the byte-level Shannon entropy of b —
// the STEK entropy probe's cheap screen. A repeated fixed 16-byte IV
// stays capped at log2(16) = 4 bits/byte no matter how many samples
// accumulate, while pooled uniform-random IVs climb toward 8 — the gap
// widens with sample count.
func ShannonBitsPerByte(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	var hist [256]int
	for _, c := range b {
		hist[c]++
	}
	h := 0.0
	n := float64(len(b))
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}
