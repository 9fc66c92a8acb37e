GO ?= go
FUZZTIME ?= 10s
BENCH_EXECS ?= 8000
TIMELINE_EXECS ?= 2000

.PHONY: build vet test test-short race lint elide-audit obs-check explain-check monitor-check fuzz-smoke bench-parallel bench-record bench-trend bench-check rehost-check races-check ci ci-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The whole suite under the race detector — the scheduler's
# one-Machine-per-goroutine invariant is enforced here.
race:
	$(GO) test -race ./...

race-short:
	$(GO) test -race -short ./...

# Source formatting plus the static instrumentation-completeness audit:
# every registry firmware (rebuilt as EMBSAN-C where possible) must lint
# clean, and the linter must prove it catches a deliberately broken build.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./cmd/embsan lint -all
	$(GO) run ./cmd/embsan lint -selftest

# The link-time elision audit: every registry firmware is elided and every
# recorded elision's safety proof re-derived, and the auditor must prove it
# catches a deliberately bogus elision.
elide-audit:
	$(GO) run ./cmd/embsan lint -elide -all
	$(GO) run ./cmd/embsan lint -elide -selftest

# Observability checks: trace a registry firmware end to end (the exporter
# validates its own Chrome trace_event output and two runs must be
# byte-identical), prove the off path allocates nothing, and run the paired
# traced/untraced campaign comparison (identical outcomes, phase columns
# only when asked for).
obs-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -e; \
	mkdir -p "$$dir/a" "$$dir/b"; \
	$(GO) run ./cmd/embsan trace -firmware InfiniTime -out "$$dir/a" -validate; \
	$(GO) run ./cmd/embsan trace -firmware InfiniTime -out "$$dir/b" -validate >/dev/null; \
	cmp "$$dir/a/InfiniTime.trace.json" "$$dir/b/InfiniTime.trace.json"; \
	cmp "$$dir/a/InfiniTime.folded" "$$dir/b/InfiniTime.folded"; \
	cmp "$$dir/a/InfiniTime.metrics.json" "$$dir/b/InfiniTime.metrics.json"; \
	echo "obs-check: trace output is byte-reproducible"
	$(GO) test ./internal/obs -run 'TestEmitZeroAlloc|TestChromeTraceExport' -count 1
	$(GO) test ./internal/obs/timeline -run TestAdvanceZeroAlloc -count 1
	$(GO) test ./internal/exps -run 'TestTraceOffIsNoop|TestTimelineOffIsNoop' -count 1

# Monitor gate: the headless HTTP-client test drives every `embsan monitor`
# endpoint (SSE stream, OpenMetrics scrape, artifact downloads) and asserts
# the served EMTL byte-equals an offline run — liveness is a view, never an
# input — then the subcommand itself runs one short monitored set end to end.
monitor-check:
	$(GO) test ./internal/exps -run 'TestMonitorEndpoints|TestMonitorArtifactsGatedUntilDone' -count 1
	$(GO) run ./cmd/embsan monitor -firmware InfiniTime -execs 500 -addr 127.0.0.1:0 -exit-when-done

# Bug-forensics gate: explain the seeded InfiniTime use-after-free twice and
# require byte-identical report text and explain.json (the deterministic
# replay contract of `embsan explain`), then run the forensic determinism
# and ground-truth backtrace tests.
explain-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -e; \
	mkdir -p "$$dir/a" "$$dir/b"; \
	$(GO) run ./cmd/embsan explain -firmware InfiniTime -bug st7789_draw -seed 7 -out "$$dir/a"; \
	$(GO) run ./cmd/embsan explain -firmware InfiniTime -bug st7789_draw -seed 7 -out "$$dir/b" >/dev/null; \
	cmp "$$dir/a/InfiniTime.explain.txt" "$$dir/b/InfiniTime.explain.txt"; \
	cmp "$$dir/a/InfiniTime.explain.json" "$$dir/b/InfiniTime.explain.json"; \
	echo "explain-check: explain output is byte-reproducible"
	$(GO) test ./internal/exps -run 'TestExplainSeededUAF|TestExplainDeterministicAcrossWorkers' -count 1
	$(GO) test ./internal/obs/forensics -count 1

# Short smoke runs of the native fuzz targets (corpora under testdata/).
# Minimization is capped at one exec: the default 60s budget would eat the
# whole smoke run shrinking the first coverage-expanding input.
fuzz-smoke:
	$(GO) test ./internal/isa -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dsl -fuzz FuzzParseRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/static -fuzz FuzzRecoverCFG -fuzztime $(FUZZTIME)
	$(GO) test ./internal/static -fuzz FuzzRehostLift -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/static -fuzz FuzzLocksets -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/static/absint -fuzz FuzzAbsint -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/obs -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/timeline -fuzz FuzzTimelineRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/forensics -fuzz FuzzExplainRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/emu -fuzz FuzzChainedExecution -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/san -fuzz FuzzKASANRestore -fuzztime $(FUZZTIME)

# Static rehosting gate: emit the binary-only mystery image to a file, lift
# it from the encoded bytes alone, boot it through the synthesized bridge,
# have the Prober confirm the allocator, run a short campaign — then audit
# the recorded profile against the image and prove the auditor catches a
# tampered one.
rehost-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -e; \
	$(GO) run ./cmd/embsan rehost -emit-mystery x86e -image-out "$$dir/mystery.img"; \
	$(GO) run ./cmd/embsan rehost -image "$$dir/mystery.img" -profile-out "$$dir/mystery.profile" -campaign 2000; \
	$(GO) run ./cmd/embsan lint -rehost -image "$$dir/mystery.img" -profile "$$dir/mystery.profile"; \
	$(GO) run ./cmd/embsan lint -rehost -selftest

# The pooled-scheduler throughput series (serial runner vs worker pool).
bench-parallel:
	$(GO) test -run xxx -bench BenchmarkParallelCampaigns -benchtime 2x .

# Re-record the translation fast-path bench artefact: every registry
# firmware, fast engine vs NoFastPaths baseline on the identical replay
# workload. Run after engine changes and commit the refreshed JSON — the
# repo carries the throughput trajectory alongside the code.
bench-record:
	$(GO) run ./cmd/embsan-bench -record BENCH_translate.json -record-execs $(BENCH_EXECS)
	$(GO) run ./cmd/embsan-bench -record-rehost BENCH_rehost.json
	$(GO) run ./cmd/embsan-bench -record-races BENCH_races.json

# Re-record the timeline-sampling overhead artefact and append one summary
# row — distilled from all four BENCH_*.json files — to the cross-PR
# throughput trajectory in BENCH_trend.json. Run after bench-record so the
# sibling artefacts reflect the same tree.
bench-trend:
	$(GO) run ./cmd/embsan-bench -record-timeline BENCH_timeline.json -timeline-execs $(TIMELINE_EXECS)
	$(GO) run ./cmd/embsan-bench -record-trend BENCH_trend.json

# CI gate on the committed artefacts: schemas and registry coverage must
# match the current code (measured values are machine-dependent and never
# diffed), and a bounded live smoke must show the fast paths engaging —
# zero chain hits or zero dispatches elided fails the build.
bench-check:
	$(GO) run ./cmd/embsan-bench -bench-check BENCH_translate.json
	$(GO) run ./cmd/embsan-bench -rehost-check BENCH_rehost.json
	$(GO) run ./cmd/embsan-bench -timeline-check BENCH_timeline.json
	$(GO) run ./cmd/embsan-bench -trend-check BENCH_trend.json

# Static race-triage gate: every registry firmware must be clean-or-expected
# under the lockset analysis (seeded races flagged, race-free firmware with
# zero candidate pairs), the elision auditor must catch a planted bogus
# lockset, and the committed guided-vs-uniform artefact must record the
# lockset guidance beating uniform KCSAN sampling (virtual-clock exec counts
# are machine-independent, so the values themselves are validated).
races-check:
	$(GO) run ./cmd/embsan lint -races -all
	$(GO) run ./cmd/embsan lint -races -selftest
	$(GO) run ./cmd/embsan-bench -races-check BENCH_races.json

ci: vet build lint elide-audit obs-check explain-check monitor-check race fuzz-smoke rehost-check bench-check races-check

# ci with the long campaign/overhead experiments skipped.
ci-short: vet build lint elide-audit obs-check explain-check monitor-check race-short fuzz-smoke rehost-check bench-check races-check
