GO ?= go

# Bench knobs: every bench target names the root package by its stable
# import path (tlsshortcuts) instead of ".", so the command works from
# any directory and CI/local invocations measure the same package; all
# targets honor BENCHTIME for comparable iteration counts.
BENCHPKG ?= tlsshortcuts
BENCHTIME ?= 1x

.PHONY: build test test-faults test-telemetry test-shards test-cryptanalysis \
	test-obsv test-traffic race fuzz bench bench-campaign bench-gate bench-million \
	bench-million-bound fmt

build:
	$(GO) build ./...

test:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short ./...

# Lossy-network robustness suite: fault plan determinism, scan deadlines
# and retries, the error taxonomy, cache sweeping, the golden-matrix row
# for the empty fault plan, and the sharded-merge golden check.
test-faults:
	$(GO) test -run 'Fault|Stall|Refus|Reset|Retry|Transient|Classify|Churn|Decide|Sweep|Len|Expire|NoRoute|Clearing|ShardedCampaignMatchesGolden' \
		./internal/faults ./internal/simnet ./internal/scanner ./internal/session ./internal/study
	$(GO) test -run 'TestCampaignDeterminism/^(default|empty_fault_plan)$$' ./internal/study

# Telemetry suite: registry/histogram correctness under -race, span
# schema round-trip, dial/label collectors, report-rendering determinism,
# and the inertness proof — the golden 200x8 campaign re-run with
# telemetry fully enabled must still match the committed hash, and a
# faulted campaign's deterministic metrics must be identical across
# worker counts.
test-telemetry:
	$(GO) test -race ./internal/telemetry
	$(GO) test -run 'Telemetry|Span|ReportRendering' \
		./internal/scanner ./internal/simnet ./internal/study
	$(GO) test -run 'TestFaultCampaignDeterministicAcrossWorkers|TestCampaignDeterminism/^(default|telemetry)$$' \
		./internal/study

# Sharding determinism suite: the 200x8 seed-7 campaign split into 1, 3,
# and 5 independently-run shards and merged must reproduce the committed
# golden hash byte-identically, shards must not depend on worker count,
# and the merge must reject malformed shard sets.
test-shards:
	$(GO) test -run 'Shard|Merge' -count=1 ./internal/study
	$(GO) test -run 'TestCampaignDeterminism/^default$$' -count=1 ./internal/study

# Cryptanalysis suite: dictionary cracking and probe units, the ticket
# key-name regressions, the attacker capture-path fixes (format rejection,
# snapshot isolation under -race, round-trip property, e2e resumed-capture
# decryption), and the weak-population campaign proofs — nonzero measured
# decryption yield with the toggle on, byte-identical golden hash with it
# off, and worker-count/shard invariance of the weak campaign itself.
test-cryptanalysis:
	$(GO) test -count=1 ./internal/cryptanalysis ./internal/ticket ./internal/vulnwindow
	$(GO) test -race -count=1 ./internal/attacker
	$(GO) test -run 'WeakCrypto|CampaignDeterminism/^default$$' -count=1 ./internal/study

# Observability-plane suite. Fast half under -race: SSE broadcaster
# accounting under churn (never blocks, every dropped event counted),
# journal round-trip/validation/merge, prom exposition, and the cluster
# view. Full half without -short: the golden 200x8 campaign re-run with
# the whole plane attached (HTTP server + churning SSE subscribers +
# flight-recorder journal + trace) must match the committed hash, with
# phase_end events equal to the trace spans and pprof/expvar served; the
# journal's deterministic view, terminal snapshot included, must be
# identical across worker counts and for sharded-vs-monolithic merges;
# and studyrun's fatal path must finalize the journal (plus the simweb
# -metrics smoke).
test-obsv:
	$(GO) test -race -count=1 -run 'Broadcaster|Prom|Sanitize|JournalRoundTrip|JournalValidation|JournalVersion|JournalAbort|MergeJournals|ClusterView' ./internal/obsv
	$(GO) test -count=1 ./internal/obsv ./cmd/studyrun ./cmd/simweb ./cmd/tlsobserve

# Traffic-plane suite: the workload model's purity and engine determinism
# (worker counts, user shards), the session store's bounded-LRU eviction
# order, the stable-dial isolation proof, the zero-wall-delta progress
# guards, the timeline traffic lanes, and the study-level contract — a
# traffic-on campaign is deterministic across workers and shard merges,
# and with traffic off the golden 200x8 hash still holds.
test-traffic:
	$(GO) test -count=1 ./internal/traffic
	$(GO) test -run 'BoundedCache|StableDials|ProgressZeroWallDelta|ProgressCounterRollback|ProgressTrafficFields|Timeline' \
		-count=1 ./internal/session ./internal/simnet ./internal/obsv ./cmd/tlsobserve
	$(GO) test -run 'Traffic|CampaignDeterminism/^(default|traffic_stripped)$$' -count=1 ./internal/study

race:
	$(GO) test -race ./...

# Native fuzz targets, each run for 20s. Their committed seed corpora
# (testdata/fuzz/<target>/) also run as plain tests under go test.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzVerifySKE$$' -fuzztime 20s ./internal/pki
	$(GO) test -run '^$$' -fuzz '^FuzzParseInto$$' -fuzztime 20s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSpansJSON$$' -fuzztime 20s ./internal/study
	$(GO) test -run '^$$' -fuzz '^FuzzDatasetJSON$$' -fuzztime 20s ./internal/study
	$(GO) test -run '^$$' -fuzz '^FuzzReadRecord$$' -fuzztime 20s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzAttackerLoad$$' -fuzztime 20s ./internal/attacker
	$(GO) test -run '^$$' -fuzz '^FuzzTicketOpen$$' -fuzztime 20s ./internal/ticket
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime 20s ./internal/obsv

bench:
	$(GO) test -run=NONE -bench=. -benchtime=$(BENCHTIME) ./...

# Full-scale campaign benchmark (1000 domains x 44 days, 16 workers);
# refreshes the committed BENCH_campaign.json trajectory point.
bench-campaign:
	BENCH_CAMPAIGN_FULL=1 BENCH_CAMPAIGN_OUT=BENCH_campaign.json \
		$(GO) test -run=NONE -bench='CampaignE2E$$' -benchtime=$(BENCHTIME) $(BENCHPKG)

# Smoke-scale bench + regression gate: measures the short campaign,
# then compares allocs_per_op / alloc_bytes_per_op (tight) and
# seconds_per_op / handshakes_per_sec (loose) against the committed
# smoke baseline. CI fails the build if this fails. BENCH_GATE_PROFILES
# adds -cpuprofile/-memprofile of the gated run (CI uploads them as
# artifacts for regression triage).
BENCH_GATE_PROFILES ?=
bench-gate:
	BENCH_CAMPAIGN_OUT=/tmp/bench_smoke.json \
		$(GO) test -short -run=NONE -bench='CampaignE2E$$' -benchtime=$(BENCHTIME) \
		$(if $(BENCH_GATE_PROFILES),-cpuprofile=$(BENCH_GATE_PROFILES)/bench_smoke.cpu -memprofile=$(BENCH_GATE_PROFILES)/bench_smoke.mem,) \
		$(BENCHPKG)
	$(GO) run tlsshortcuts/cmd/benchgate -baseline testdata/bench_smoke_baseline.json -current /tmp/bench_smoke.json

# Million-scale extrapolation profile: paper-shaped 63-day campaign at
# BENCH_MILLION_LIST domains, sampling peak live heap and projecting
# memory/wall time to the Top Million x 63 days; refreshes the committed
# BENCH_million.json. Override the scale for a quick smoke:
#   make bench-million BENCH_MILLION_LIST=300 BENCH_MILLION_DAYS=6 BENCH_MILLION_OUT=/tmp/m.json
BENCH_MILLION_LIST ?= 4000
BENCH_MILLION_DAYS ?= 63
BENCH_MILLION_OUT ?= BENCH_million.json
bench-million:
	BENCH_MILLION_LIST=$(BENCH_MILLION_LIST) BENCH_MILLION_DAYS=$(BENCH_MILLION_DAYS) \
	BENCH_MILLION_OUT=$(BENCH_MILLION_OUT) \
		$(GO) test -run=NONE -bench=CampaignMillionProfile -benchtime=$(BENCHTIME) -timeout=30m $(BENCHPKG)

# CI's O(domains) memory bound: fails when the bench-million result in
# BENCH_MILLION_OUT holds more live heap per domain than the budget.
MAX_LIVE_HEAP_BYTES_PER_DOMAIN = 20000
bench-million-bound:
	@jq -r '"live_heap_bytes_per_domain=\(.live_heap_bytes_per_domain) (budget $(MAX_LIVE_HEAP_BYTES_PER_DOMAIN), list=\(.list_size) days=\(.days))"' $(BENCH_MILLION_OUT)
	@jq -e --argjson max $(MAX_LIVE_HEAP_BYTES_PER_DOMAIN) '.live_heap_bytes_per_domain <= $$max' \
		$(BENCH_MILLION_OUT) >/dev/null || { echo "live-heap-per-domain budget exceeded" >&2; exit 1; }

fmt:
	gofmt -l -w .
