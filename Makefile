# Tier-1 verification: formatting, static checks, build, tests.
.PHONY: check fmt vet build test lint identity tables bench-smoke fuzz-smoke loc profile

check: fmt vet build test lint bench-smoke fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# lint runs simlint, the repo's determinism discipline (see tools/simlint
# and the "Determinism discipline" section of README.md). Zero unsuppressed
# findings is a merge requirement; suppressions must carry a reason
# (//simlint:allow <analyzer> — <why>).
lint:
	go run ./tools/simlint ./...

# identity runs the serving layer's cross-mode suite twice under the race
# detector: the tests that compare Replay, ReplayLanes and ReplayStream by
# their exported traces and monitor series (Trace, ByteIdent, Identical), by
# their reports (Matches) and against values pinned before the modes shared
# an engine (Golden). Lanes are the package's only goroutines. CI calls this
# target, so the pattern has one home.
identity:
	go test ./internal/serve/ -run 'Trace|ByteIdent|Identical|Matches|Golden' -race -count=2

# tables regenerates every registered experiment at QuickScale and diffs the
# result against internal/experiments/testdata/quick.golden: the paper's
# tables and figures, the ablations and the later experiments as one pinned
# file (about 70 s, no race detector). A refactor must leave it alone; a
# declared model change rewrites it with
# `go test ./internal/experiments -run TestQuickGolden -update` and commits
# the diff. `go test ./...` runs the same test among the package's others;
# this target runs it alone.
tables:
	go test ./internal/experiments -run TestQuickGolden -count=1

# bench-smoke vets and smoke-tests the repository benchmark (bench/, the
# program behind BENCHMARK.json). It is a module of its own, so `./...`
# above never builds it: this step is what notices an internal/* API change
# that broke it.
bench-smoke:
	cd bench && go vet . && go test .

# fuzz-smoke runs every native fuzz target for FUZZTIME each: the decoders
# that parse bytes off simulated wires must return errors, never panic, on
# hostile input. `go test -fuzz` takes one target and one package per run;
# the targets are found by name, so a new Fuzz* function is picked up
# without editing this file. Dot-directories are pruned: .bench_build/ holds
# whole copies of the tree (parent-*) when a comparison build is lying around.
FUZZTIME := 10s
fuzz-smoke:
	@find . -name '.?*' -prune -o -name '*_test.go' -exec grep -l '^func Fuzz' {} + | xargs -n1 dirname | sort -u | while read -r dir; do \
		for target in $$(grep -h -o '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -c6-); do \
			echo "fuzz $$dir $$target"; \
			go test $$dir -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) || exit 1; \
		done; \
	done

# loc prints non-test, non-blank, non-comment Go lines per package: the
# count every CHANGES.md entry reports its net change in.
loc:
	@go list -f '{{.Dir}}' ./... | while read -r dir; do \
		files=$$(ls $$dir/*.go | grep -v '_test\.go$$'); \
		printf '%6d %s\n' $$(cat $$files | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l) .$${dir#$(CURDIR)}; \
	done | awk '{ n += $$1; print } END { printf "%6d total\n", n }'

# profile captures CPU and heap profiles of the benchmark named by
# PROFILE_BENCH (default: the million-query replay) and prints the top-10
# flat-cost functions of each, then who calls runtime.memmove (who copies,
# and how much of the host's time that is), so "where does the replay
# engine spend its time" is one command away. Profiles land in ./profiles/.
PROFILE_BENCH := BenchmarkMillionQueryReplay
profile:
	mkdir -p profiles
	go test -run '^$$' -bench $(PROFILE_BENCH) -benchtime 1x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/bench.test .
	go tool pprof -top -nodecount=10 profiles/bench.test profiles/cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/bench.test profiles/mem.prof
	go tool pprof -peek 'runtime.memmove$$' profiles/bench.test profiles/cpu.prof
