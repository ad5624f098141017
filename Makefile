# Developer entry points. `make check` is the tier-1 gate; `make race` runs
# the packages that start goroutines under the race detector — the
# experiment engine (whose -j workers share prepared workload instances), its
# determinism tests, core (whose free list of timed devices the workers trade
# through: TestResetMatchesFresh ends on a four-worker engine) and the full
# distributed suite (the socket-free campaign state machine, TLS/token auth,
# lease expiry, chaos fault injection, drains), so coordinator and worker
# locking is exercised under contention on every run. A simulation itself
# runs on one goroutine: timing, mem, emu and stats are left out, and
# TestSimulationIsSingleThreaded fails if one of them imports sync or starts
# a goroutine. The report is left out too: every run it prints is an exp job,
# and TestReportSimulatesNothing fails if it imports sync or starts a
# goroutine of its own.
# `make dist-soak` repeats the control plane's own suites COUNT times under
# the race detector — the flake detector for lease/result/drain timing.
# `make portable` runs what the assembly overlays (the AVX2 kernels of
# internal/emu, the AVX-512 uniqueness kernel of internal/stats) must not
# hide: the kernel differentials, the uniqueness oracle, lockstep tests and
# goldens under the purego tag, which builds the generated kernels and the
# table alone, and an arm64 vet and build.
# `make fuzz` gives the wire codec, the BRIG container decoder, the GCN3
# instruction decoder, the cache model, the memory drain, the whole-wave
# memory accesses, the whole-wave kernels and the Fig 10 uniqueness kernel a
# short coverage-guided beating.

GO ?= go

.PHONY: check fmt vet build test race portable dist-soak fuzz bench bench-ab

check: fmt vet build test

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/exp/... ./internal/dist/... ./internal/chaos/... \
		./internal/core/... ./cmd/...

portable:
	$(GO) test -tags purego ./internal/emu/... ./internal/stats/... ./internal/core/... ./internal/report/...
	GOARCH=arm64 $(GO) vet ./internal/emu ./internal/stats
	GOARCH=arm64 $(GO) build ./...

# dist-soak: ~10 s per repeat on two cores, so the default is about half an
# hour; the timeout is per package and replaces go test's 10-minute default.
COUNT ?= 200
dist-soak:
	$(GO) test -race -count=$(COUNT) -timeout 2h ./internal/dist

# fuzz runs the journal/distributed-result codec fuzzer, the BRIG and GCN3
# decode-what-encodes fuzzers, the cache-vs-reference-LRU fuzzer, the
# drain-vs-level-wave-reference fuzzer, the wave-access-vs-per-lane-calls
# fuzzer, the kernel-vs-scalar-ALU fuzzer and the UniqueCount-vs-map fuzzer
# for a bounded time each (FUZZTIME to taste);
# CI runs the same things for 10s on every push.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzWireResult -fuzztime $(FUZZTIME) -run '^$$' ./internal/exp
	$(GO) test -fuzz=FuzzDecodeBRIG -fuzztime $(FUZZTIME) -run '^$$' ./internal/hsail
	$(GO) test -fuzz=FuzzDecodeInst -fuzztime $(FUZZTIME) -run '^$$' ./internal/gcn3
	$(GO) test -fuzz=FuzzCacheAccess -fuzztime $(FUZZTIME) -run '^$$' ./internal/mem
	$(GO) test -fuzz=FuzzDrainReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/mem
	$(GO) test -fuzz=FuzzLaneAccess -fuzztime $(FUZZTIME) -run '^$$' ./internal/mem
	$(GO) test -fuzz=FuzzLaneKernels -fuzztime $(FUZZTIME) -run '^$$' ./internal/emu
	$(GO) test -fuzz=FuzzUniqueCount -fuzztime $(FUZZTIME) -run '^$$' ./internal/stats

# bench runs the repository's one benchmark (bench/, declared by
# BENCHMARK.json): five workloads end to end in host time; see
# bench/README.md for -layers, -runs/-out and -compare.
bench:
	bash bench/run.sh

# bench-ab settles a speed claim the way bench/README.md prescribes: REF is
# checked out as a git worktree, each side is built by its own bench/run.sh,
# PAIRS (>= 10) interleaved pairs alternate which side goes first, and
# `bench -compare` judges parent against change (scripts/bench-ab.sh).
PAIRS ?= 10
bench-ab:
	@test -n "$(REF)" || { echo "usage: make bench-ab REF=<commit> [PAIRS=10]"; exit 2; }
	git worktree add --detach --force .bench_build/ab/ref $(REF)
	bash scripts/bench-ab.sh .bench_build/ab/ref $(PAIRS); status=$$?; \
		git worktree remove --force .bench_build/ab/ref; exit $$status
