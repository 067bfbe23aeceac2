GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race bench bench-all bench-gate check cmd-tests serve-smoke fuzz-short legality legality-race lint perfbench-test inline-check loc

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is optional locally (skipped
# with a note when not installed); CI installs it and runs this as its
# own job, so lint findings fail the build there.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Trace + engine + server + model-build + description-clone benchmarks,
# snapshotted into BENCH_trace.json (ns/op, allocs/op, cmds/s, MB/s,
# req/s) so future PRs have a perf trajectory to compare against. The
# human-readable output still lands on stderr.
BENCH_PATTERN = Trace|Sweep|Server|Schedule|Build$$|EvaluatePattern|SchemeComparison|Clone
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . \
		| $(GO) run ./tools/benchjson -echo > BENCH_trace.json

# Regression gate: rerun the bench snapshot into a scratch file and
# compare it against the committed BENCH_trace.json; >10% regressions in
# ns/op or cmds/s fail the build. Override BENCH_THRESHOLD for noisier
# runners. The -floor line pins the sharded scheduler against its own
# serial baseline from the same run (machine-independent): parallel
# scheduling may never fall below 0.9x serial — on a single-core runner
# the engine's serial fallback makes the two coincide, and on multi-core
# any sharding overhead regression fails the gate.
BENCH_THRESHOLD ?= 10
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . \
		| $(GO) run ./tools/benchjson > BENCH_new.json
	$(GO) run ./tools/benchjson -compare BENCH_trace.json -threshold $(BENCH_THRESHOLD) \
		-floor 'BenchmarkSchedule4ChParallel:req/s>=0.9*BenchmarkSchedule4Ch:req/s' \
		BENCH_new.json

# Every benchmark in the repo (the full reproduction log).
bench-all:
	$(GO) test -bench=. -benchmem .

# The end-to-end benchmark is its own module (perfbench/go.mod), so
# ./... at the root neither builds nor tests it; it imports the internal
# packages, so an API change there must keep it compiling and its
# determinism tests passing.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Black-box smoke of the HTTP service: builds dramserved, starts it on a
# random port, exercises every endpoint (including a 429 overload case),
# then SIGTERMs it and checks the graceful drain.
serve-smoke:
	$(GO) run ./tools/servesmoke

# Short fuzz passes over the hand-written parsers, the pattern
# evaluator's totals/breakdown split, every description the parser
# accepts (it must build within an allocation budget, replay its IDD7
# loop and a short schedule clean, and build a knob and a scheme variant
# in reused storage exactly as fresh), the timing rulebook (every command
# placed at its earliest legal slot must issue, and one slot earlier must
# not; a low-power window's exit placed by the rulebook must let the next
# command issue, and one slot later must not), the IDD loops the rulebook
# places on scaled timings (every loop must replay clean and cost what
# the pattern evaluation reports), the scheduler (arbitrary access
# streams and options must schedule into legal traces), the k-way merge
# of channel streams (merging round by round under a watermark must
# equal the whole-stream scan, command for command) and the server's
# query strings (any query on any endpoint must answer below 500); go's
# fuzzer runs one target per invocation, hence one line each. Override
# FUZZTIME for a longer hunt.
# Each FuzzScheduleReplay input runs four schedules and three replays,
# a FuzzRulesTight input issues up to thousands of commands, and the
# descriptor FuzzParse, FuzzDescriptorBuild and FuzzBinaryScanner start
# from seeds of several kilobytes, so minimizing a new input for the
# default 60 s would stall a short pass (uncapped, FuzzDescriptorBuild
# ran 7 inputs in 10 s); their minimization is capped at 100 runs.
fuzz-short:
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -run '^$$' ./internal/desc/
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/codec/
	$(GO) test -fuzz FuzzEvaluatePattern -fuzztime $(FUZZTIME) -run '^$$' ./internal/core/
	$(GO) test -fuzz FuzzDescriptorBuild -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -run '^$$' ./internal/core/
	$(GO) test -fuzz FuzzOverlay -fuzztime $(FUZZTIME) -run '^$$' ./internal/desc/
	$(GO) test -fuzz FuzzTraceScanner -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzBinaryScanner -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzMerge -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzRulesTight -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -run '^$$' ./internal/timing/
	$(GO) test -fuzz FuzzIDDLoops -fuzztime $(FUZZTIME) -run '^$$' ./internal/trace/
	$(GO) test -fuzz FuzzAccessScanner -fuzztime $(FUZZTIME) -run '^$$' ./internal/ctl/
	$(GO) test -fuzz FuzzScheduleReplay -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -run '^$$' ./internal/ctl/
	$(GO) test -fuzz FuzzServerQuery -fuzztime $(FUZZTIME) -run '^$$' ./internal/server/

# Retention legality sweep: every page policy × address map × channel
# count × low-power combination is scheduled and replayed — both
# two-phase and through the fused streaming pipeline — asserting zero
# timing violations, zero missed tREFI deadlines, and fused/two-phase
# bit-identity, the streaming merge against collecting every channel and
# merging afterwards, plus the scheduler golden (864 configurations pinned
# byte for byte), and the paper's IDD loops on every shipped device (each
# replays clean and costs what the pattern evaluation reports). Part of
# the regular test pass too; this target runs it uncached and on its own
# so the refresh-scheduler and loop-placement contracts have a named
# gate.
LEGALITY_TESTS = TestScheduledTraceLegalitySweep|TestRefreshSurvivesPowerDown|TestFusedMatchesTwoPhase|TestScheduleParallelMatchesSerial|TestScheduleMatchesCollectThenOracle|TestScheduleGolden
legality:
	$(GO) test ./internal/ctl -run '$(LEGALITY_TESTS)' -count=1
	$(GO) test ./internal/trace -run 'TestIDDLoopsReplayClean' -count=1

# The same sweep under the race detector, plus the pipeline's error-path
# shutdown tests: proves the sharded schedule → replay handoff is
# properly synchronized, including mid-stream source and sink failures,
# that the shared double-buffered ring (engine.Pipeline) under both
# streaming paths shuts down cleanly, that engine.Run's workers, which
# both pipelines call every round through engine.Map, claim each job
# exactly once at one P and at two (the default worker count follows
# GOMAXPROCS), that trace replay's decoder hands each round's slab to
# the consumer that shards it, and that concurrent sweeps and scheme
# comparisons never share the pooled scratch their variants build in.
legality-race:
	$(GO) test -race ./internal/ctl -run '$(LEGALITY_TESTS)|TestScheduleInto' -count=1
	$(GO) test -race -cpu 1,2 ./internal/engine -run 'TestPipeline|TestRun' -count=1
	$(GO) test -race ./internal/trace -run 'TestReplay|TestMillionCommand' -count=1
	$(GO) test -race ./internal/sensitivity ./internal/schemes -count=1

# The compiler must keep inlining the hot-path helpers into their
# callers: codec's FastVarint into dtb's ScanBatch, the slab's Refill check,
# FastVarint, the word load, WordVarint and Unzigzag into the .dab
# scanner's Scan, the codec lexer and integer parsers into both text
# scanners, and the timing rulebook's queries
# (all but ActivateAt), commits and accessors into Simulator.Issue and
# the controller. The table is in the script.
inline-check:
	GO=$(GO) sh tools/inlinecheck.sh

# Every binary keeps its tests: each cmd/* directory must hold a _test.go
# file (golden tests of its run function, error paths and -h included).
cmd-tests:
	@status=0; for d in cmd/*/; do \
		ls "$$d"*_test.go >/dev/null 2>&1 || { echo "cmd-tests: $$d has no _test.go file" >&2; status=1; }; \
	done; exit $$status

# Line counts of the module's Go sources, the yardstick of a change that
# claims less code: non-test lines raw, non-test lines of code only (blank
# and // comment lines dropped) and test lines. Tracked and new
# (unignored) files count; perfbench/ (its own module) and .bench_build/
# do not.
loc:
	@git ls-files --cached --others --exclude-standard -- '*.go' ':!perfbench/' ':!.bench_build/' \
		| sort -u | while read -r f; do [ -f "$$f" ] && echo "$$f"; done \
		| xargs awk 'FILENAME ~ /_test\.go$$/ { test++; next } { raw++ } !/^[ \t]*(\/\/|$$)/ { code++ } \
			END { printf "non-test lines: %d raw, %d code\ntest lines:     %d\n", raw, code, test }'

# The full gate: everything CI (and a reviewer) expects to be green.
# CI runs the race detector as its own job (ci.yml "race"), so check
# keeps the fast non-instrumented test pass.
check: build vet cmd-tests test inline-check legality perfbench-test serve-smoke fuzz-short
