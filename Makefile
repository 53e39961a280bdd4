GO ?= go

.PHONY: build test race vet staticcheck promtest check bench benchcheck chaoscheck crashcheck fuzz scalecheck obscheck paritycheck growcheck figcheck perfcheck runcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs only where the binary is installed (CI installs it;
# local builds without it still pass `make check`).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# promtest pins the /metrics exporter to the Prometheus text
# exposition-format grammar.
promtest:
	$(GO) test ./internal/obs/ -run 'TestWriteProm|TestPromName'

# The second line gives internal/par's resident workers (hand-off, idle
# exit, what a parked worker still references) ten rounds each; the third
# gives seven supervisor drills (a spare that dies mid-rebuild, then the
# next spare and an empty pool; a pause from the pace hook; the state
# persisted and a second failure tracked beside a held rebuild; a snapshot
# saved mid-resync keeping the regions not yet copied; a half-rebuilt
# spare still blank after a restart; a rebuild resumed beside a member
# with missed regions, taking none of its stale blocks; a restart from a
# snapshot a write-ahead storm filled, no member blank) ten; the
# fourth gives raid.Window (both wait backends, no starvation, a
# foreground write against a parked restore chunk on four engines, and
# TestWindowVerifyBesideWriter: Verify and a stride-1 scrub beside a
# stamped writer, zero mismatches), the write drill (every engine loses
# a member mid-call, ends as with it down at plan time, and reads back
# new before the readmitted member's resync), the flapping rebuild
# target (a write it missed mid-rebuild or while the rebuild was paused
# stays missed after the commit) and a mirrored column whose copies
# missed writes to one region, each block read from its fresh copy
# five; the fifth gives the
# session block cache (admission, eviction, invalidation, its slot list)
# and the two session tests that fill and flush through it five; the sixth
# gives fsim's multi-client tests (one lock group per operation, one
# lock per inode-table block) five; the seventh gives the memory store
# (its mapping copied only under a shard lock, no torn block beside a
# writer, unmapped once unreachable, remapped by Blank) five; the eighth
# gives the frame writer (its bytes however segmented), the frames a
# RAID-x write costs, the server's reply bursts (a same-op burst in
# one write, no reply held behind another op or a notification, a burst
# split past 64 KiB) and its payload views (a handler that keeps one is
# a race report, an echoed burst comes back intact, the pool balances
# over fitting and oversized payloads) five; the ninth gives
# a grouped call failed mid-flight (only its member dirty, its carried
# runs marked, no sibling cancelled) twenty.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/par/
	$(GO) test -race -count=10 -run 'TestRepairSpareDiesMidRebuild|TestRepairPauseResumeMidRebuild|TestRepairCheckpointDuringJob|TestRepairCheckpointMidResync|TestRepairCheckpointSpareStaysBlank|TestRepairCheckpointRebuildBesideMissedMember|TestRepairCheckpointAheadStormRestart' ./internal/repair/
	$(GO) test -race -count=5 -run 'TestWindow|TestEnginesWriteFailureMidCall|TestRepairRebuildTargetFlaps|TestMirroredReadsEachBlockFromItsFreshCopy' ./internal/raid/
	$(GO) test -race -count=5 -run 'TestBlockCache|TestSessionCachedReads|TestWriteBackRecoversAfterRenewal' ./internal/cdd/
	$(GO) test -race -count=5 -run 'TestConcurrentClientsUnderVClock|TestLockerSerializesConflicts|TestTwoMountsShareState|TestShadowModelSequential' ./internal/fsim/
	$(GO) test -race -count=5 -run 'TestMem' ./internal/store/
	$(GO) test -race -count=5 -run 'TestVectoredWriteBytesIdentical|TestReplyBurst|TestServerView|TestCallsGroupedWrite' ./internal/transport/ ./internal/cdd/
	$(GO) test -race -count=20 -run TestGroupedWriteFailureMarksCarriedRuns ./internal/cdd/

# Full verification: static analysis, the exporter grammar tests, and
# the whole suite (including the transport/cdd fault-injection tests)
# under the race detector.
check: vet staticcheck promtest race

# chaoscheck runs the self-healing chaos suite (CI job `repair`): the
# repair-supervisor and delta-resync tests under the race detector —
# the supervisor drills and the writes-while-a-spare-is-blank schedule
# in internal/repair, table-driven over raidx, rs(k,2), raid5(4) and
# chained(4), and a write-ahead storm that must start no resync and
# whose marks age out; the
# member-table drills over all five redundant engines in internal/raid
# (a blank member serves no read, a flapping rebuild target keeps what it
# missed); the faultnet kill/partition/readmit scenarios in
# internal/cdd over raidx and an rs(4,2) stripe — plus the coherence
# chaos suite (partitioned writers and caching readers on overlapping
# lock groups: zero stale reads, lease auto-release of dead holders)
# run twice; the transport and faultnet packages (the one
# deadline-bounded write path, driven through faultnet's stalls) under
# the race detector three times; and the cdd mixed-workload chaos test
# (TestChaosMixedWorkload) once.
chaoscheck:
	$(GO) test -run 'TestRepair|TestResync' -race ./...
	$(GO) test -run 'TestCoherence' -race -count=2 ./internal/cdd/
	$(GO) test -race -count=3 ./internal/transport/ ./internal/faultnet/
	$(GO) test -run TestChaosMixedWorkload -race ./internal/cdd/

# crashcheck runs the crash-consistency suite (CI job `crash`): the
# fault-injection VFS tests, superblock/reopen edge cases, intent and
# checkpoint persistence, the in-process power-cut recovery harness
# (torn writes, lying fsync), the supervisor's restart drills (a spare
# still blank, a rebuild resumed beside a member with missed regions, a
# snapshot a write-ahead storm filled that leaves no member blank),
# fsim's commit order (each operation cut after every one of its writes
# leaves only leaks; torn inside a write, Repair mends its bitmaps), and
# the real
# SIGKILL/restart drill over
# raidxnode processes (cmd/raidxnode; its in-process twin, the node
# runtime's Abort -> restart drill, runs in growcheck) — all under the
# race detector, twice.
crashcheck:
	$(GO) test -run 'TestCrash|TestFaultFS|TestSuperblock|TestInspect|TestFileReopen|TestFileWasClean|TestFileBlank|TestFileConcurrent|TestLogSave|TestLogLoad|TestRepairLocal|TestRepairCheckpoint|TestRepairStateDir' -race -count=2 ./...

# fuzz gives each parser fuzzer a short budget: snapshot merging and
# superblock decoding must never panic on arbitrary bytes,
# Reed-Solomon encode/reconstruct must round-trip every geometry and
# erasure pattern the fuzzer can reach, and a block op (read, write or
# background write, each an extent table) the manager rejects must have
# written nothing.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLogMerge -fuzztime 20s ./internal/intent/
	$(GO) test -run '^$$' -fuzz FuzzSuperblockDecode -fuzztime 20s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzRSRoundTrip -fuzztime 20s ./internal/parity/
	$(GO) test -run '^$$' -fuzz FuzzWriteExtents -fuzztime 20s ./internal/cdd/

bench:
	$(GO) test -bench=. -benchmem ./...

# benchcheck runs the allocation-pinned regression tests: AllocsPerRun
# limits on the hot paths (a warmed-up par.Do itself — its index adapter
# and nothing per branch — transport round trips, a call with
# notes behind it included, remote device I/O at the benchmark's 4 KiB
# and 64 KiB sizes — measured 3 allocs for a read and 3 for a write at
# both, limit 6, a grouped write as well — a 64 KiB RAID-x write over
# four loopback nodes — measured 20, limit 23 — the engine's stripe fan-out,
# the parity engines' writes and degraded read, the mirrored engines'
# 16-block reads and writes over 4 KiB blocks (limits raid10 6 / 8,
# chained 8 / 12; measured 5 / 7 and 7 / 11: a closure per run, no
# staging buffer per run), and coherent
# cache-hit reads — which
# must stay at 0 remote calls and <= 2 allocs; a write-back batch or a
# scattered flush over a full cache costs no more than the one remote
# write it makes; more than ten capacities of cache hits, halving sweeps
# of the admission sketch included, allocate nothing) — and the call pins
# (TestCalls): a session's flush of 64 scattered dirty blocks is ONE
# remote write (TestCallsGroupCommit), a 64 KiB RAID-x write is 4 OpWrite
# + 6 OpWriteBG frames at the managers and 4 col-write + 6 mirror-write
# spans, grouped or not (TestCallsGroupedWrite), the session cache's hit ratio on
# session_cache's own mix, replayed with no network or clock, stays
# >= 0.69 at <= 0.175 misses per op (TestCallsCacheZipf; plain LRU
# reads 0.631 / 0.212),
# the engine's exact device-call set and issue order at layout generation
# 0 and 1 (TestCallsPlacement) and the baselines' — raid0, raid10,
# chained, raid5, rs(6,2), afraid, healthy, with a member failed and with
# a member blank (TestCallsForeground) — the exact device-call set of a
# full rebuild through the one
# restore loop for every redundant engine and then of a Verify (its
# compare mode: every member's rebuild reads plus one read per chunk, no
# write), none above one 128-block chunk (TestCallsRestore), the
# array calls on fsim's extent data path (a 256 KiB
# WriteFile, its ReadFile and a 4 KiB overwrite inside a 1 MiB file each
# stay at a handful, so a return to per-block I/O fails here), fsim's
# calls per operation on a cached mount (TestCallsFSOps: each operation
# is one transaction), its one Lock per operation (TestCallsLockOps) and
# its allocations per overwrite and per Create + Remove (TestAllocsFS), and the
# memory store's first write to an untouched block, overwrite and read,
# which allocate nothing (TestAllocsMem: a block is a range of one
# mapping, not a heap slice), a full session cache's bytes, which stay off
# the heap (TestAllocsCacheBytesOffHeap), and a tracer that never records,
# which holds no span ring and records later spans with no allocation
# (TestAllocsIdleTracer). A hot-path
# allocation regression fails here before it shows up in the benchmarks.
# Must run without -race — the race runtime allocates on its own account.
benchcheck:
	$(GO) test -run 'TestAllocs|TestFloor|TestCalls' -count=1 -v ./internal/par/ ./internal/transport/ ./internal/cdd/ ./internal/core/ ./internal/raid/ ./internal/parity/ ./internal/fsim/ ./internal/store/ ./internal/trace/

# paritycheck runs the parity-kernel shard (CI job `parity`): the full
# kernel/RS suite under the race detector, the portable purego build of
# the same tests and of the stripe engine's (exercising the safe word
# path and the table-loop multiply the asm replaces, degraded reads
# included), and the throughput floor + allocation pins without -race.
paritycheck:
	$(GO) test -race -count=1 ./internal/parity/
	$(GO) test -tags purego -count=1 ./internal/parity/
	$(GO) test -tags purego -count=1 ./internal/raid/
	$(GO) test -run 'TestAllocs|TestFloor' -count=1 -v ./internal/parity/ ./internal/raid/

# figcheck runs the paper-figures golden test (CI job `figures`):
# Figure 5, Table 3, the degraded/rebuild table, a reduced Figure 6 and
# the design-choice ablations (the only deterministic runs of RAID-x's
# foreground-mirror, scattered-image and balanced-read options) run on
# the virtual clock and must match cmd/raidxbench/testdata byte for byte. Regenerate with `go test ./cmd/raidxbench/ -run
# TestPaperFiguresGolden -update` only when a number is meant to move.
# Beside it, every client read of the degraded table, in all three
# states, must return the prefilled data.
figcheck:
	$(GO) test -run TestPaperFiguresGolden -count=1 ./cmd/raidxbench/
	$(GO) test -run TestDegradedSweepReadsPrefill -count=1 ./internal/bench/

# obscheck runs the observability-plane shard (CI job `obs`): the
# whole obs package (labeled instruments, cluster merge, SLO burn
# tracker and its live sampling loop, exporter grammar) under the race
# detector, the two sample-driven SLO feedback tests five times more, the QoS
# actuator tests (live gauges, retuning beside waiters) and the closed
# loop over a plant (TestSLOPlantStepSequence: the exact step sequence
# down to the floor and back to baseline, no wall clock), the SLO
# feedback chaos drill — a background storm over real TCP whose burn
# feedback must step the background QoS rate down while it runs, every
# sample taken by the test — and a node that samples nothing without
# -slo-p99 and, with it, leaves no goroutine after Close.
obscheck:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=5 -run 'TestSLOBurnFeedback|TestSLOErrorBurn' ./internal/obs/
	$(GO) test -race -count=1 -run 'TestLiveRateGauges|TestRetuneRaceUnderWaiters|TestSLOPlantStepSequence' ./internal/qos/
	$(GO) test -race -count=1 -run 'TestSLOChaos' -v ./internal/cdd/
	$(GO) test -race -count=1 -run TestNodeObservabilityAndTeardown ./internal/node/

# growcheck runs the online-membership shard (CI job `grow`): the
# epoch/remap property tests (every geometry pair up to 64 nodes), the
# migration engine drills (live traffic, pause/resume, crash resume,
# shrink, source failover, the deterministic vclock schedule in which a
# stamped writer Proc and Migration.Run share the clock), the
# supervisor rebalance jobs and their mutual exclusion with recovery, the
# layout-generation fence over the wire, the one mount path (device
# tables per generation, degraded mount, the refusals, the stale-epoch
# rerun), the TCP grow chaos drill with a node kill, and the drills
# through the real rebalance coordinator over in-process nodes
# (internal/node: fence at start, completion, Abort -> restart resume,
# a partition mid-rebalance, no goroutine left after Close or Abort, the
# untearable layout reply, intent snapshots reaching the joined nodes)
# — all under the race detector, twice. The
# real-process SIGKILL resume drill runs once (it builds binaries).
growcheck:
	$(GO) test -run 'TestEpoch|TestOSM|TestMigration|TestSupervisedGrow|TestRebalance|TestGrowChaos|TestGrowIntent|TestFileEpoch|TestMount|TestLayoutReply' -race -count=2 ./internal/layout/ ./internal/core/ ./internal/repair/ ./internal/cdd/ ./internal/store/ ./internal/mount/ ./internal/node/
	$(GO) test -run 'TestGrowCrash' -race -count=1 ./cmd/raidxnode/

# scalecheck runs the serving-at-scale shard (CI job `scale`): the
# coherence protocol and session tests, the QoS scheduler and the
# workload generator (Gen, Latencies), under the race detector.
scalecheck:
	$(GO) test -run 'TestLockModes|TestLease|TestRevocation|TestBeatReset|TestSession|TestCoherence' -race ./internal/cdd/
	$(GO) test -race ./internal/qos/ ./internal/workload/

# perfcheck runs the one yardstick (CI job `perf`, pushes to main only):
# the five benchmark workloads plus ladder and traced runs, compared
# against the committed baseline. A regressed end-to-end metric fails;
# when the runs spread too widely to tell (unresolved) the whole thing is
# run once more, and if it still cannot tell, that is a warning, not a
# failure. The baseline was measured on another host: read a failure here
# as "measure a before/after pair on one machine", not as a verdict.
PERF_BASE ?= benchmark/baseline/seed1-a.json
PERF_OUT ?= benchmark/out/perfcheck.json
perfcheck:
	@for attempt in 1 2; do \
		$(GO) run ./benchmark -out $(PERF_OUT) || exit 1; \
		$(GO) run ./benchmark -compare $(PERF_BASE) $(PERF_OUT) > $(PERF_OUT).txt; code=$$?; \
		cat $(PERF_OUT).txt; \
		if [ $$code -ne 0 ]; then echo "perfcheck: regressed against $(PERF_BASE) (or not comparable)"; exit 1; fi; \
		if ! grep -q '[1-9][0-9]* unresolved$$' $(PERF_OUT).txt; then exit 0; fi; \
		if [ $$attempt -eq 1 ]; then echo "perfcheck: unresolved metrics, running once more"; fi; \
	done; \
	echo "perfcheck: WARNING: still unresolved after a rerun; not failing"

# runcheck fails when a test pattern in this Makefile or in the CI
# workflow names nothing: every |-separated alternative of every -run
# and -fuzz pattern (but '^$$', which runs nothing on purpose) must be
# matched by `go test -list` over that line's packages, so a deleted or
# renamed test cannot drop out of a shard unseen (CI job `lint`).
runcheck:
	@set -f; grep -hE '^[[:space:]]*(run: )?(\$$\(GO\)|go) test .*-(run|fuzz) ' Makefile .github/workflows/ci.yml | \
	sed -e 's/^.* test //' -e "s/'//g" -e 's/\$$\$$/$$/g' | while read -r line; do \
		set -- $$line; pkgs=; pats=; \
		while [ $$# -gt 0 ]; do \
			case $$1 in -run|-fuzz) pats="$$pats $$2"; shift;; ./*) pkgs="$$pkgs $$1";; esac; shift; \
		done; \
		for pat in $$pats; do \
			[ "$$pat" = '^$$' ] && continue; \
			for alt in $$(echo "$$pat" | tr '|' ' '); do \
				out=$$($(GO) test -list "$$alt" $$pkgs) || exit 1; \
				if ! echo "$$out" | grep -qvE '^(ok|\?) '; then \
					echo "runcheck: '$$alt' (of -run/-fuzz '$$pat') matches no test in$$pkgs"; exit 1; \
				fi; \
			done; \
		done; \
	done && echo "runcheck: every test pattern matches"
