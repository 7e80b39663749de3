# Tier-1 verification: formatting, static checks, build, tests.
.PHONY: check fmt vet build test lint identity tables bench-smoke fuzz-smoke portable loc profile docs-paths

check: fmt vet build test lint bench-smoke fuzz-smoke portable docs-paths

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

# portable keeps the Go kernels that every GOARCH but amd64 runs
# (internal/sparse/kernels_generic.go) building and passing: amd64 runs the
# assembly in kernels_amd64.s instead, so nothing else here compiles them.
# 386 runs the package's tests, arm64 is vetted.
portable:
	GOARCH=386 go test ./internal/sparse
	GOARCH=arm64 go vet ./internal/sparse

# docs-paths fails when README.md or the verify recipe names a program
# (cmd/<name>, examples/<name>, with or without ./) that has no directory, so
# deleting a program without its docs is caught. ROADMAP.md and CHANGES.md
# are history and may name programs that are gone.
DOC_FILES := README.md .claude/skills/verify/SKILL.md
docs-paths:
	@missing=$$(grep -o -h -E '(\./)?\b(cmd|examples)/[A-Za-z0-9_-]+' $(DOC_FILES) | sort -u | \
		while read -r p; do [ -d "$$p" ] || echo "$$p"; done); \
	if [ -n "$$missing" ]; then echo "$(DOC_FILES) name programs with no directory:"; echo "$$missing"; exit 1; fi

# loc prints non-test, non-blank, non-comment Go lines per package: the
# count every CHANGES.md entry reports its net change in.
loc:
	@go list -f '{{.Dir}}' ./... | while read -r dir; do \
		files=$$(ls $$dir/*.go | grep -v '_test\.go$$'); \
		printf '%6d %s\n' $$(cat $$files | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l) .$${dir#$(CURDIR)}; \
	done | awk '{ n += $$1; print } END { printf "%6d total\n", n }'

# profile captures CPU and heap profiles of examples/millionday's
# BenchmarkMillionQueryReplay and prints the top-10 flat-cost functions of
# each, then who calls runtime.memmove (who copies, and how much of the
# host's time that is), so "where does the replay engine spend its time"
# is one command away. That replay runs the Serial engine, so the same
# profiles follow for core's BenchmarkEngineQueueRun, which runs the FSI
# loop over the Queue channel (B/op and allocs/op print with the timing).
# Profiles land in ./profiles/.
profile:
	mkdir -p profiles
	go test -run '^$$' -bench BenchmarkMillionQueryReplay -benchtime 1x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/bench.test ./examples/millionday
	go tool pprof -top -nodecount=10 profiles/bench.test profiles/cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/bench.test profiles/mem.prof
	go tool pprof -peek 'runtime.memmove$$' profiles/bench.test profiles/cpu.prof
	go test -run '^$$' -bench BenchmarkEngineQueueRun -benchtime 50x \
		-cpuprofile profiles/core-cpu.prof -memprofile profiles/core-mem.prof \
		-o profiles/core.test ./internal/core
	go tool pprof -top -nodecount=10 profiles/core.test profiles/core-cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/core.test profiles/core-mem.prof
