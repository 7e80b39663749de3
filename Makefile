# Tier-1 verification: formatting, static checks, build, tests.
.PHONY: check fmt vet build test lint identity tables golden bench-smoke fuzz-smoke portable loc cover profile docs-paths

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
# result against internal/experiments/testdata/TestQuickGolden.golden: the
# paper's tables and figures, the ablations and the later experiments as one
# pinned file (about 70 s, no race detector). A refactor must leave it alone;
# a declared model change rewrites it, with every other golden, by
# `make golden` and commits the diff. `go test ./...` runs the same test
# among the package's others; this target runs it alone.
tables:
	go test ./internal/experiments -run TestQuickGolden -count=1

# golden re-captures every golden file: it runs, with -update, the tests of
# each package whose tests import internal/golden, so each golden.Check call
# rewrites its testdata/<Test>.golden instead of comparing. Packages are
# found by their imports, so a new golden test needs no edit here; -update
# goes only to them because `go test ./... -update` stops at the first
# package that does not define the flag. A declared model change runs it
# and commits the diff; a refactor must leave the tree clean after it.
golden:
	go test -count=1 $$(go list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | \
		awk '/ fsdinference\/internal\/golden( |$$)/ { print $$1 }') -update

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
# 386 runs the package's tests, arm64 is vetted. 386 also runs the planner's
# and fsdcost's tests, so the transport rows' float pricing — every
# pre-filter verdict and fsdcost's golden report — is checked off amd64 too, and
# wire's, so the frame estimate the chunk split cuts by is. Last, it fails
# on any fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB) in arm64's
# assembly of the pricing packages — the meter and the services that charge
# its float lines (usage, faas, kvstore) as well as the rows and the run's
# usage: a fused product rounds once where amd64 rounds twice, so a price or
# a cold start would differ by GOARCH. An explicit conversion of the
# product, float64(x*y) + z, forbids the fusion.
PRICING_PKGS := ./internal/wire ./internal/core ./internal/plan ./cmd/fsdcost \
	./internal/cloud/usage ./internal/cloud/faas ./internal/cloud/kvstore
portable:
	GOARCH=386 go test ./internal/sparse ./internal/wire
	GOARCH=386 go test ./internal/plan ./cmd/fsdcost
	GOARCH=arm64 go vet ./internal/sparse
	@asm=$$(GOARCH=arm64 go build -gcflags=-S $(PRICING_PKGS) 2>&1) || { echo "$$asm" | tail -20; exit 1; }; \
	fused=$$(echo "$$asm" | grep -E '[[:space:]]F(N)?M(ADD|SUB)[SD][[:space:]]'); \
	if [ -n "$$fused" ]; then echo "fused multiply-adds in the arm64 build of $(PRICING_PKGS):"; echo "$$fused"; exit 1; fi

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

# cover runs the module's tests once with -coverprofile and prints, per
# package, the statements they leave unrun and the package's statement
# count, then the totals: the numbers a CHANGES.md entry quotes when it
# adds or removes coverage. Every test binary instruments every package
# (-coverpkg), and a block counts as run if any binary ran it, so code one
# package's tests reach through another (kvcluster's failover calling
# kvstore.SyncFrom) is not reported unrun. It is a measurement, not a gate.
# The profile lands in ./profiles/.
cover:
	mkdir -p profiles
	go test -coverpkg ./... -coverprofile profiles/cover.out ./... > /dev/null
	@awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (b in n) { p = b; sub(/\/[^\/]*$$/, "", p); all[p] += n[b]; if (!(b in hit)) un[p] += n[b] } \
			for (p in all) printf "%6d %6d %s\n", un[p], all[p], p }' profiles/cover.out | sort -k3,3 | \
		awk '{ u += $$1; a += $$2; print } END { printf "%6d %6d total (uncovered, statements)\n", u, a }'

# profile captures CPU and heap profiles of examples/millionday's
# BenchmarkMillionQueryReplay and prints the top-10 flat-cost functions of
# each, then who calls runtime.memmove (who copies, and how much of the
# host's time that is; a profile that caught no memmove sample says so
# rather than failing), so "where does the replay engine spend its time"
# is one command away. The same profiles follow for core's
# BenchmarkEngineRun: serial, one Serial run of the stream_day shape on the
# one-rank worker of a fresh deployment; serial-warm, the same run on a
# deployment that has served one, so its B/op is the path that recycles the
# layer buffer; queue, the FSI loop over the Queue channel at P=4; and
# queue-warm, that loop on a deployment whose ranks have run once, so its
# B/op is the path that recycles each rank's buffers; and memory-p32 and
# memory-p32-warm, collective_p32's run shape on the Memory channel, fresh
# and warm (B/op and allocs/op print with the timing). Core's heap profile
# prints twice, by bytes and by object count (alloc_objects): the
# allocation budgets in core's tests are counts of mallocs, so the second
# list names what they count.
# Profiles land in ./profiles/.
profile:
	mkdir -p profiles
	go test -run '^$$' -bench BenchmarkMillionQueryReplay -benchtime 1x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/bench.test ./examples/millionday
	go tool pprof -top -nodecount=10 profiles/bench.test profiles/cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/bench.test profiles/mem.prof
	@out=$$(go tool pprof -peek 'runtime.memmove$$' profiles/bench.test profiles/cpu.prof 2>&1) || \
		case "$$out" in *"no matches found"*) out="no runtime.memmove samples in this profile";; *) echo "$$out"; exit 1;; esac; \
		echo "$$out"
	go test -run '^$$' -bench BenchmarkEngineRun -benchtime 50x \
		-cpuprofile profiles/core-cpu.prof -memprofile profiles/core-mem.prof \
		-o profiles/core.test ./internal/core
	go tool pprof -top -nodecount=10 profiles/core.test profiles/core-cpu.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space profiles/core.test profiles/core-mem.prof
	go tool pprof -top -nodecount=10 -sample_index=alloc_objects profiles/core.test profiles/core-mem.prof
