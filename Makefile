GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet test test-short race race-short lint obs-check allocs-check explain-check monitor-check fuzz-smoke bench-parallel perfbench-vet rehost-check races-check cross-build ci ci-short

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

# Allocation gate: once a campaign is warm, one exec (Restore, Exec of an
# input that does not crash, and the fuzzer's next input) allocates nothing,
# on the byte frontend with EMBSAN-D allocator hooks and on the syscall
# frontend with EMBSAN-C hypercalls.
allocs-check:
	$(GO) test ./internal/fuzz -run 'TestExecPathZeroAlloc' -count 1

# Monitor gate: the headless HTTP-client test drives every `embsan monitor`
# endpoint (SSE stream, OpenMetrics scrape, artifact downloads) and asserts
# the served EMTL byte-equals an offline run — liveness is a view, never an
# input — then the subcommand itself runs one short monitored set end to end.
monitor-check:
	$(GO) test ./internal/exps -run 'TestMonitorEndpoints|TestMonitorArtifactsGatedUntilDone|TestMonitorEventsEndWhenDoneDropped' -count 1
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
	$(GO) test ./internal/emu -fuzz FuzzLoadImage -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/core -fuzz FuzzDeploymentRewind -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/san -fuzz FuzzKASANRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/san -fuzz FuzzInlineClean -fuzztime $(FUZZTIME)

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

# The benchmark in perfbench/ is its own Go module, so the root build never
# compiles it: vet it against the current tree so that removing an exported
# internal/... name it uses fails here, not at benchmark time.
perfbench-vet:
	cd perfbench && GOWORK=off GOFLAGS= GOPROXY=off $(GO) vet .

# Guest RAM is mapped through build-tagged files (an anonymous mapping on
# linux, the Go heap elsewhere): build for two other platforms so a missing
# tag breaks here.
cross-build:
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

# Static race-triage gate: every registry firmware must be clean-or-expected
# under the lockset analysis (seeded races flagged, race-free firmware with
# zero candidate pairs; the race twin is the positive control).
# Guided-vs-uniform KCSAN finding is TestRaceGuidedBeatsUniform.
races-check:
	$(GO) run ./cmd/embsan lint -races -all

ci: vet build cross-build lint obs-check allocs-check explain-check monitor-check race fuzz-smoke rehost-check perfbench-vet races-check

# ci with the long campaign/overhead experiments skipped.
ci-short: vet build cross-build lint obs-check allocs-check explain-check monitor-check race-short fuzz-smoke rehost-check perfbench-vet races-check
