# Tier-1 verification: formatting, static checks, build, tests.
.PHONY: check fmt vet build test lint bench-smoke bench bench-guard profile

# BENCH_N is this PR's point on the perf trajectory: bump it each PR so
# `make bench` appends a new BENCH_N.json and benchguard compares it
# against the previous one.
BENCH_N := 9

check: fmt vet build test lint bench-smoke

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

# bench-smoke vets and smoke-tests the repository benchmark (bench/, the
# program behind BENCHMARK.json). It is a module of its own, so `./...`
# above never builds it: this step is what notices an internal/* API change
# that broke it.
bench-smoke:
	cd bench && go vet . && go test .

bench: bench-guard
	go test -bench . -benchtime 1x .

# bench-guard appends this PR's perf-trajectory point and fails on a >25%
# serving-replay ns/op regression against the previous BENCH_*.json. CI
# runs this target, so the BENCH_N filename has a single source of truth.
bench-guard:
	go run ./tools/benchjson -out BENCH_$(BENCH_N).json
	go run ./tools/benchguard -new BENCH_$(BENCH_N).json

# profile captures CPU and heap profiles of the benchmark named by
# PROFILE_BENCH (default: the million-query replay) and prints the top-10
# flat-cost functions of each, so "where does the replay engine spend its
# time" is one command away. Profiles land in ./profiles/.
PROFILE_BENCH := BenchmarkMillionQueryReplay
profile:
	mkdir -p profiles
	go test -run '^$$' -bench $(PROFILE_BENCH) -benchtime 1x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/bench.test .
	go tool pprof -top -nodecount=10 profiles/bench.test profiles/cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/bench.test profiles/mem.prof
