GO ?= go

# Pinned linter versions. `$(GO) run pkg@version` resolves, caches and
# runs the exact same binary everywhere — no pre-installed tools, no
# `@latest` drift between CI and a laptop, nothing added to go.mod.
# Bump deliberately, in this one place.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test vet fmt lint verlog-lint staticcheck govulncheck race guard fuzz check size bench bench-e2e soak clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond go vet. fmt fails when gofmt would change a
# tracked .go file. verlog-lint is the repo's own invariant checker
# (stdlib-only, always runs). staticcheck and
# govulncheck run at the pinned versions above through `go run`, the
# identical command locally and in CI; the probe only skips them when
# the pinned module itself cannot be resolved (hermetic sandboxes with
# no module cache and no network) — never because a binary is missing
# from PATH.
lint: fmt vet verlog-lint staticcheck govulncheck

fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# The engine's own analyzers: frozen-base mutation, applyMu->diskMu->commitMu
# lock order, bounded tenant metric labels, no wall-clock reads under
# commitMu, no import of the spec evaluator (internal/spec, the tests'
# oracle) from a file that ships, and no commit-only switch to drop result(P)
# (core.WithDropResult) outside internal/repository. See docs/ANALYSIS.md
# and internal/lint.
verlog-lint:
	$(GO) run ./cmd/verlog-lint .

staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck@$(STATICCHECK_VERSION) unresolvable (offline, empty module cache); skipping"; \
	fi

govulncheck:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "lint: govulncheck@$(GOVULNCHECK_VERSION) unresolvable (offline, empty module cache); skipping"; \
	fi

race:
	$(GO) test -race ./...

# The allocation and size guards (bytes per journaled fact, per first read;
# in-run ratios) and TestCostLaws, the table of fitted cost exponents (bytes
# and time against the work an operation does), skip under the race
# detector, which allocates and slows on its own account — so they get a run
# without it.
guard:
	$(GO) test -count=1 -run 'Guard|CostLaws' . ./internal/...

# The six fuzz targets, 30 s each (as in CI) on top of the seed corpora
# that `go test` always replays: the journal and snapshot codec (round trip,
# corruption caught), the digest a commit sums from its changes against the
# rendered lists', the delta layer's persistent map against a Go map and its
# own earlier snapshots, the two-word OID's order, equality and rendering
# against a reference of a sort, a string and a rational side by side (every
# number reads back as itself), the argument tuple's encoding (round trip,
# first element, length), and the engine against the spec evaluator (same
# refusal, or the same result(P), ob' and fired updates).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDiffCodec -fuzztime 30s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzChangesDigest -fuzztime 30s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzPmap -fuzztime 30s ./internal/objectbase
	$(GO) test -run '^$$' -fuzz FuzzOIDCompare -fuzztime 30s ./internal/term
	$(GO) test -run '^$$' -fuzz FuzzArgsRoundTrip -fuzztime 30s ./internal/term
	$(GO) test -run '^$$' -fuzz FuzzEngineVsSpec -fuzztime 30s ./internal/eval

# The gate: everything a change must pass before it lands.
check: build vet race guard

# Lines of Go outside benchmarks/, non-test and test: the size ROADMAP.md
# tracks. Only tracked files count (git ls-files), so build output and
# scratch files do not. Prints; gates nothing.
size:
	@git ls-files -z '*.go' ':!:benchmarks/' | grep -zv '_test\.go$$' | xargs -0 cat | wc -l | xargs printf 'non-test Go lines: %s\n'
	@git ls-files -z '*_test.go' ':!:benchmarks/' | xargs -0 cat | wc -l | xargs printf 'test Go lines:     %s\n'

# Two-process replication soak: builds verlog-server, runs a real
# primary/follower pair over TCP with enterprise (Figure 2) traffic,
# kill -9s the primary (asserting /v1/readyz flips 200 -> 503 -> 200
# across the failover), promotes the follower, and verifies every acked
# apply survived exactly once. The final `verlog status` fleet table is
# written to soak-fleet-status.txt (CI uploads it as an artifact). Gated
# behind VERLOG_SOAK so plain `go test ./...` stays hermetic.
soak:
	VERLOG_SOAK=1 VERLOG_SOAK_STATUS=$(CURDIR)/soak-fleet-status.txt \
		$(GO) test -race -count=1 -v -run TestSoakTwoProcessFailover ./internal/replication/

# Smoke check: every benchmark runs once with allocation stats, so a
# broken benchmark can't rot unnoticed. The benchmarks are the one source of
# the experiments' times (the E1-E9 tables of internal/bench hold counts
# only, and `go test` holds them against their goldens). The raw output is
# converted by `verlog-bench -gobench-json` to machine-readable BENCH_10.json
# (including the derived E11 overhead_x metric) for CI to archive — the same
# file TestBenchRegressionGuard holds B/op and allocs/op against. Real
# measurements want -benchtime to be raised.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' ./... > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	@cat bench.out
	# Refine the headline benches with a steady-state pass: the 1x sweep
	# measures cold single shots (index builds, first-touch page faults);
	# the interpreter-gap trajectory wants warm numbers, and so does E25
	# (queries against a warm head; its build rows are the cold ones), and so
	# do the fixpoint-bound ones (E4, E5, E24), the bulk commit (E34) and the
	# history reads that evaluate bulk commits again (E36): a
	# single shot buys the evaluation's working memory, which every apply
	# after it finds parked — the collection the runner makes before it
	# counts leaves it there. The converter keeps the last result per name,
	# so these overwrite the smoke rows.
	$(GO) test -bench 'E1SalaryRaise|E2Enterprise|E4Ancestors|E5VersionChains|E11VsDirect|E24ClosedClosure|E25QueryScaling|E34BulkApply|E36HistoryAt' -benchmem -benchtime 5x -run '^$$' . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/verlog-bench -gobench-json bench.out > BENCH_10.json
	@rm -f bench.out

# The end-to-end benchmark: a real verlog-server on a real directory,
# driven over HTTP through four workloads, every reply checked against an
# oracle. BENCHMARK.json names the metrics; benchmarks/README.md explains
# them and how to compare two commits (alternating pairs, never two
# single runs). Prints one table per workload; not a gate.
bench-e2e:
	$(GO) run ./benchmarks/load --workload all --seed 1

clean:
	$(GO) clean ./...
