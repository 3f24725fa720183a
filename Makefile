# Build, test, and experiment targets for the adaptive-objects reproduction.

GO ?= go

.PHONY: all build vet lint lint-allows fmt-check test race cover fuzz bench bench-compare experiments clean

all: build vet lint fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Simlint: the repo's own static-analysis suite (internal/analysis),
# run through the standard vet driver so package loading, caching, and
# diagnostics all come from the toolchain. See DESIGN.md "Statically
# enforced invariants". The timing line makes analyzer-cost regressions
# visible in CI logs (the flow-sensitive analyzers build a CFG per
# function; a blowup shows up here long before it hurts locally).
lint:
	$(GO) build -o bin/simlint ./cmd/simlint
	@start=$$(date +%s); \
	  $(GO) vet -vettool=bin/simlint ./...; rc=$$?; \
	  end=$$(date +%s); echo "simlint: whole-tree lint took $$((end - start))s"; \
	  exit $$rc

# Audit //simlint:allow directives: fails on malformed ones and on stale
# ones (suppressions whose analyzer no longer fires at that position).
lint-allows:
	$(GO) build -o bin/simlint ./cmd/simlint
	./bin/simlint -allows ./...

# Formatting gate: fails (listing the offenders) if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage gates: internal/profile is the observability tentpole,
# internal/locks carries the predictive/cohort lock kinds,
# internal/active holds the asynchronous monitor protocol, and
# internal/analysis (with its framework) is the static-analysis suite
# whose correctness the lint gate leans on; each package's statement
# coverage must stay at or above 80% (measured across the whole test
# suite — their exercisers live in sim, cthreads, workload, and
# experiments tests too).
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/profile ./internal/... > /dev/null
	@$(GO) tool cover -func=cover.out | tail -1
	@pct="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	  awk -v p="$$pct" 'BEGIN { if (p+0 < 80) { printf "coverage gate: internal/profile at %s%%, need >= 80%%\n", p; exit 1 } }'
	$(GO) test -coverprofile=cover_locks.out -coverpkg=./internal/locks ./internal/... > /dev/null
	@$(GO) tool cover -func=cover_locks.out | tail -1
	@pct="$$($(GO) tool cover -func=cover_locks.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	  awk -v p="$$pct" 'BEGIN { if (p+0 < 80) { printf "coverage gate: internal/locks at %s%%, need >= 80%%\n", p; exit 1 } }'
	$(GO) test -coverprofile=cover_active.out -coverpkg=./internal/active ./internal/... > /dev/null
	@$(GO) tool cover -func=cover_active.out | tail -1
	@pct="$$($(GO) tool cover -func=cover_active.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	  awk -v p="$$pct" 'BEGIN { if (p+0 < 80) { printf "coverage gate: internal/active at %s%%, need >= 80%%\n", p; exit 1 } }'
	$(GO) test -coverprofile=cover_analysis.out -coverpkg=./internal/analysis/... ./internal/analysis/... > /dev/null
	@$(GO) tool cover -func=cover_analysis.out | tail -1
	@pct="$$($(GO) tool cover -func=cover_analysis.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	  awk -v p="$$pct" 'BEGIN { if (p+0 < 80) { printf "coverage gate: internal/analysis at %s%%, need >= 80%%\n", p; exit 1 } }'
	@rm -f cover.out cover_locks.out cover_active.out cover_analysis.out

# Time-boxed fuzzing: runs every Fuzz* target in the module for FUZZTIME
# each (`go test` alone only replays the seed corpora) and fails on the
# first crasher. go test writes a crasher under the package's
# testdata/fuzz/<target>/; commit it as a regression seed.
FUZZTIME ?= 10s
fuzz:
	@for pkg in $$($(GO) list -f '{{.ImportPath}}:{{.Dir}}' ./...); do \
	  for name in $$(cat $${pkg#*:}/*_test.go 2>/dev/null | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p'); do \
	    echo "fuzz: $$name in $${pkg%%:*} for $(FUZZTIME)"; \
	    $(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $${pkg%%:*} || exit 1; \
	  done; \
	done

# Benchmark baseline: engine micro-benchmarks at full benchtime plus the
# paper-table macro benchmarks at one iteration each (their sim-* metrics
# are deterministic, so one iteration is exact), folded into BENCH_sim.json
# for cross-PR perf trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim > bench_micro.out
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x . > bench_macro.out
	cat bench_micro.out bench_macro.out
	$(GO) run ./cmd/benchjson -out BENCH_sim.json bench_micro.out bench_macro.out
	rm -f bench_micro.out bench_macro.out

# Regression gate: rerun every benchmark once and diff the deterministic
# sim-* metrics against the committed baseline. Wall-clock numbers are
# report-only; any simulated-metric drift fails the target.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x ./internal/sim > bench_check.out
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x . >> bench_check.out
	$(GO) run ./cmd/benchjson -compare BENCH_sim.json bench_check.out
	rm -f bench_check.out

# Regenerate every table and figure of the paper.
experiments: build
	$(GO) run ./cmd/lockbench
	$(GO) run ./cmd/tspbench -patterns -scaling
	$(GO) run ./cmd/figures

clean:
	$(GO) clean ./...
