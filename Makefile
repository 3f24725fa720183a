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
# enforced invariants". bench/ is its own module, so it gets its own
# run. The timing line makes analyzer-cost regressions visible in CI
# logs (the balance checks build a CFG per function; a blowup shows up
# here long before it hurts locally).
lint:
	$(GO) build -o bin/simlint ./cmd/simlint
	@start=$$(date +%s); \
	  $(GO) vet -vettool=bin/simlint ./... && (cd bench && $(GO) vet -vettool=../bin/simlint ./...); rc=$$?; \
	  end=$$(date +%s); echo "simlint: whole-tree lint took $$((end - start))s"; \
	  exit $$rc

# Audit //simlint:allow directives, in both modules: fails on malformed
# ones and on stale ones (suppressions whose analyzer no longer fires at
# that position).
lint-allows:
	$(GO) build -o bin/simlint ./cmd/simlint
	./bin/simlint -allows ./...
	cd bench && ../bin/simlint -allows ./...

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
# experiments tests too). Each COVER_PAIRS entry is one gate, written
# covered-package:test-packages.
COVER_PAIRS = ./internal/profile:./internal/... ./internal/locks:./internal/... \
	./internal/active:./internal/... ./internal/analysis/...:./internal/analysis/...

cover:
	@for pair in $(COVER_PAIRS); do \
	  pkg=$${pair%%:*}; tests=$${pair#*:}; name=$${pkg#./}; name=$${name%/...}; \
	  echo "$(GO) test -coverprofile=cover.out -coverpkg=$$pkg $$tests > /dev/null"; \
	  $(GO) test -coverprofile=cover.out -coverpkg=$$pkg $$tests > /dev/null || exit 1; \
	  $(GO) tool cover -func=cover.out | tail -1; \
	  pct="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	  awk -v p="$$pct" -v n="$$name" 'BEGIN { if (p+0 < 80) { printf "coverage gate: %s at %s%%, need >= 80%%\n", n, p; exit 1 } }' || exit 1; \
	done
	@rm -f cover.out

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

# Benchmark baseline: engine and LMSK micro-benchmarks at full benchtime
# plus the paper-table macro benchmarks at one iteration each (their sim-*
# metrics are deterministic, so one iteration is exact), folded into
# BENCH_sim.json for cross-PR perf trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim ./internal/tsp > bench_micro.out
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x . > bench_macro.out
	cat bench_micro.out bench_macro.out
	$(GO) run ./cmd/benchjson -out BENCH_sim.json bench_micro.out bench_macro.out
	rm -f bench_micro.out bench_macro.out

# Regression gate: rerun every benchmark once and diff the deterministic
# sim-* metrics against the committed baseline. Wall-clock numbers are
# report-only; any simulated-metric drift fails the target. This runs the
# full suite, so a baseline benchmark benchjson has to skip ("not in this
# run") was renamed or deleted and would otherwise escape comparison:
# that fails the target too.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x ./internal/sim ./internal/tsp > bench_check.out
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x . >> bench_check.out
	$(GO) run ./cmd/benchjson -compare BENCH_sim.json bench_check.out > bench_compare.out; rc=$$?; \
	  cat bench_compare.out; \
	  if grep -q '^  skip .* not in this run$$' bench_compare.out; then \
	    echo "bench-compare: baseline benchmarks missing from the full run (renamed or deleted); restore them or regenerate BENCH_sim.json with make bench"; rc=1; \
	  fi; \
	  rm -f bench_check.out bench_compare.out; exit $$rc

# Regenerate every table and figure of the paper, and the extensions.
experiments: build
	$(GO) run ./cmd/repro all

clean:
	$(GO) clean ./...
