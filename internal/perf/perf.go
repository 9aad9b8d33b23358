// Package perf holds the process-wide switches for the campaign engine's
// performance layers. Every switch defaults to on; the equivalence tests
// flip them off to prove the fast paths are observationally identical to
// the straightforward ones (same seed -> byte-identical Dataset).
//
// The switches exist for verification only — production code never turns
// them off.
package perf

import "sync/atomic"

var (
	cryptoCaches      atomic.Bool // epoch-keyed KEX caches, cert-marshal/parse caches
	clientKexReuse    atomic.Bool // scanner reuses its client-side ephemeral keys
	bufferedPipes     atomic.Bool // simnet dials buffered pipes instead of net.Pipe
	reportMemoized    atomic.Bool // study.BuildReport memoizes per Dataset
	kexOnlyProbes     atomic.Bool // forced-suite scans disconnect after the SKE
	cryptoAmortize    atomic.Bool // AEAD/premaster/SKE-verify/ticket-flight amortization
	connRecycling     atomic.Bool // arena-recycled conn state (bufs, captures, scratch)
	flightCoalescing  atomic.Bool // record layer batches each flight into one write
	chunkedScheduling atomic.Bool // scanner workers claim contiguous domain blocks
)

func init() {
	cryptoCaches.Store(true)
	clientKexReuse.Store(true)
	bufferedPipes.Store(true)
	reportMemoized.Store(true)
	kexOnlyProbes.Store(true)
	cryptoAmortize.Store(true)
	connRecycling.Store(true)
	flightCoalescing.Store(true)
	chunkedScheduling.Store(true)
}

// CryptoCaches reports whether the epoch-keyed crypto caches are enabled.
func CryptoCaches() bool { return cryptoCaches.Load() }

// SetCryptoCaches toggles the epoch-keyed crypto caches (tests only).
func SetCryptoCaches(on bool) { cryptoCaches.Store(on) }

// ClientKexReuse reports whether the scanner reuses client KEX keys.
func ClientKexReuse() bool { return clientKexReuse.Load() }

// SetClientKexReuse toggles scanner client-key reuse (tests only).
func SetClientKexReuse(on bool) { clientKexReuse.Store(on) }

// BufferedPipes reports whether simnet uses the buffered transport.
func BufferedPipes() bool { return bufferedPipes.Load() }

// SetBufferedPipes toggles the buffered transport (tests only).
func SetBufferedPipes(on bool) { bufferedPipes.Store(on) }

// ReportMemoized reports whether BuildReport memoizes per Dataset.
func ReportMemoized() bool { return reportMemoized.Load() }

// SetReportMemoized toggles BuildReport memoization (tests only).
func SetReportMemoized(on bool) { reportMemoized.Store(on) }

// KexOnlyProbes reports whether key-exchange scans stop after capturing
// the ServerKeyExchange (zgrab-style) instead of completing the
// handshake. Everything those scans record is on the wire before the
// client's first flight, so the abbreviated probe observes exactly what
// the full handshake would.
func KexOnlyProbes() bool { return kexOnlyProbes.Load() }

// SetKexOnlyProbes toggles SKE-and-disconnect probing (tests only).
func SetKexOnlyProbes(on bool) { kexOnlyProbes.Store(on) }

// CryptoAmortization reports whether the per-connection crypto
// amortization layer is enabled: the traffic-key-keyed AEAD cache, the
// fixed-client-key premaster caches on both endpoints, and the cached
// NewSessionTicket flight prefix + in-place ticket sealing.
func CryptoAmortization() bool { return cryptoAmortize.Load() }

// SetCryptoAmortization toggles the crypto amortization layer (tests only).
func SetCryptoAmortization(on bool) { cryptoAmortize.Store(on) }

// ConnRecycling reports whether connection-state recycling is enabled:
// pooled pipe receive buffers, pooled client handshake buffers with
// capture-owned retained bytes, per-worker scanner arenas (Config,
// Capture, drbg stream), and scratch-decoded server ticket state.
func ConnRecycling() bool { return connRecycling.Load() }

// SetConnRecycling toggles connection-state recycling (tests only).
func SetConnRecycling(on bool) { connRecycling.Store(on) }

// FlightCoalescing reports whether the record layer batches each
// handshake flight into a single transport write, flushed before the
// next read. The byte stream is identical to per-record writes; only
// the number of pipe wakeups changes.
func FlightCoalescing() bool { return flightCoalescing.Load() }

// SetFlightCoalescing toggles flight-level write coalescing (tests only).
func SetFlightCoalescing(on bool) { flightCoalescing.Store(on) }

// ChunkedScheduling reports whether scanner workers claim contiguous
// blocks of domains instead of striding by single index, keeping each
// worker's recycled connection state cache-hot. Results are indexed by
// domain position, so the claim order is observationally inert.
func ChunkedScheduling() bool { return chunkedScheduling.Load() }

// SetChunkedScheduling toggles chunked work claiming (tests only).
func SetChunkedScheduling(on bool) { chunkedScheduling.Store(on) }
