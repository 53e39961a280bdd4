package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	raidx "repro"
)

// setupReps is how many times a run builds its stack before it keeps
// one: setup_s is the median of them, which a single build (a listener,
// a first connection, a cold allocator) does not pin down.
const setupReps = 5

// slicesFor is how many slices per phase fit in secs seconds.
func slicesFor(def workloadDef, secs float64, sliceLen time.Duration) int {
	return max(1, int(secs/float64(def.phases)/sliceLen.Seconds()))
}

// runResult is one run of one workload: samples for every end-to-end
// metric, and the count of operations attempted and failed (timed ops,
// flushes, fault injection, rebuilds and every block of the read-back).
type runResult struct {
	Workload  string  `json:"workload"`
	Samples   samples `json:"samples"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
}

func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUp builds the workload's stack setupReps times, keeps the last and
// returns the set-up times.
func setUp(def workloadDef, e *env) (instance, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		inst, err := def.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return inst, times, nil
		}
		inst.close()
		settle()
	}
}

// warmLen is the in-process warm-up before the timed window: caches
// fill, buffer pools grow, connections and goroutines reach their
// steady state.
const warmLen = time.Second

// runE2E is one untraced run: set-up, warm-up, a timed window of about
// secs seconds, the read-back.
func runE2E(def workloadDef, seed uint64, clients int, secs float64, sliceLen time.Duration) (runResult, error) {
	e := &env{seed: seed, clients: clients}
	inst, setups, err := setUp(def, e)
	if err != nil {
		return runResult{}, err
	}
	defer inst.close()
	res := runResult{Workload: def.name, Samples: samples{"setup_s": setups}}

	inst.window(1, warmLen/time.Duration(def.phases), true)
	settle()

	win := inst.window(slicesFor(def, secs, sliceLen), sliceLen, false)
	for _, round := range win.rounds {
		res.Samples.addRound(round)
	}
	for name, v := range win.extra {
		res.Samples[name] = v
	}

	inst.verify()
	res.Samples.add("peak_rss_mib", peakRSSMiB())
	res.Attempted, res.Failed = e.acc.attempted, e.acc.failed
	res.Samples.add("failed_ops_frac", float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func totalOps(rounds [][]seg) (ops, readBytes, writeBytes int64) {
	for _, r := range rounds {
		for _, g := range r {
			for k := opKind(0); k < nKinds; k++ {
				ops += g.ops[k]
			}
			readBytes += g.bytes[kRead]
			writeBytes += g.bytes[kWrite]
		}
	}
	return
}

// ratio is a/b, NaN when the denominator is zero or a counter it needs
// was not exported.
func ratio(a, b float64, missing ...bool) float64 {
	for _, m := range missing {
		if m {
			return math.NaN()
		}
	}
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// prefixed sets metrics under a common name prefix.
type prefixed struct {
	m      map[string]float64
	prefix string
}

func (p prefixed) set(short string, v float64) { p.m[p.prefix+short] = v }

// tracedResult is one workload's traced run: per-layer metrics by their
// full names.
type tracedResult struct {
	Workload  string
	Metrics   map[string]float64
	Attempted int64
	Failed    int64
	Warnings  []string
}

// traceSliceLen is the slice length of the traced run's two windows.
// They are a few seconds at most, and the metrics that compare or rank
// their slices (overhead_pct, tail.*) need more samples than whole
// seconds would give; most per-layer metrics are counts over the whole
// window and do not care.
const traceSliceLen = 200 * time.Millisecond

// runTraced runs the workload twice on fresh stacks: an untraced
// reference window (headline for overhead_pct, allocations per op),
// then the same window with the benchmark's wrappers in place.
func runTraced(def workloadDef, seed uint64, clients int, secs float64, traceDir string) (tracedResult, error) {
	out := tracedResult{Workload: def.name, Metrics: map[string]float64{}}
	n := slicesFor(def, secs, traceSliceLen)
	warm := min(warmLen/2, time.Duration(secs/4*float64(time.Second))) / time.Duration(def.phases)

	// Reference: the program exactly as the end-to-end rounds run it,
	// with the latency of every operation recorded as well.
	ref := &env{seed: seed, clients: clients, acc: account{lat: true}}
	inst, err := def.setup(ref)
	if err != nil {
		return out, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	inst.window(1, warm, true)
	refWin := inst.window(n, traceSliceLen, true)
	inst.verify()
	inst.close()
	settle()
	refSamples := samples{}
	for _, round := range refWin.rounds {
		refSamples.addRound(round)
	}
	refOps, _, _ := totalOps(refWin.rounds)

	// Traced: same seed, same window, wrappers in place.
	e := &env{seed: seed, clients: clients, tr: newTracer()}
	if def.engine == "" {
		e.obs = raidx.NewMetricsRegistry() // no Dev to wrap: counters instead
	}
	inst, err = def.setup(e)
	if err != nil {
		return out, fmt.Errorf("%s traced set-up: %w", def.name, err)
	}
	defer inst.close()
	inst.window(1, warm, true)
	from := int64(time.Since(e.tr.t0))
	win := inst.window(n, traceSliceLen, false)
	to := int64(win.ioEnd.Sub(e.tr.t0))
	inst.verify()
	spans := e.tr.snapshot()
	lt := analyze(spans, from, to)
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return out, err
		}
		if err := writeTraceFile(filepath.Join(traceDir, "trace-"+def.name+".json"), def.name, spans); err != nil {
			return out, err
		}
	}

	trSamples := samples{}
	for _, round := range win.rounds {
		trSamples.addRound(round)
	}
	opsI, rBytes, wBytes := totalOps(win.rounds)
	ops := float64(opsI)
	d := func(a, b int64) float64 { return float64(b - a) }
	warned := map[string]bool{}
	gone := func(name string) {
		if !warned[name] {
			warned[name] = true
			out.Warnings = append(out.Warnings, fmt.Sprintf("%s: counter %s is no longer exported; dependent metrics are null", def.name, name))
		}
	}
	miss := func(name string) bool {
		m := win.before.missing[name] || win.after.missing[name]
		if m {
			gone(name)
		}
		return m
	}
	M := prefixed{m: out.Metrics, prefix: "trace." + def.name + "."}
	serverNS := d(win.before.serverNS, win.after.serverNS)
	noLat := miss("mgr.op_latency")

	if def.engine == "" {
		// The session holds a concrete RemoteDev, so there is no Dev to
		// wrap: remote time comes from the client registry's latency
		// sums and fan-out from the manager's op counters.
		remote := d(win.before.mgrReads+win.before.mgrWrites+win.before.mgrBG, win.after.mgrReads+win.after.mgrWrites+win.after.mgrBG)
		sc := func(name string) (float64, bool) {
			a, okA := win.sessBefore[name]
			b, okB := win.sessAfter[name]
			if !okA || !okB {
				gone(name)
			}
			return float64(b - a), okA && okB
		}
		readNS, okR := sc("cdd.read_latency.sum_ns")
		writeNS, okW := sc("cdd.write_latency.sum_ns")
		devNS, ok := readNS+writeNS, okR && okW
		M.set("cdd.dev_wait_us_per_op", ratio(devNS/1e3, ops, !ok))
		M.set("cdd.dev_calls_per_op", ratio(remote, ops, miss("mgr.read_ops"), miss("mgr.write_ops")))
		M.set("transport.wire_us_per_op", ratio((devNS-serverNS)/1e3, ops, !ok, noLat))
		hits, ok1 := sc("sess.cache_hits")
		misses, ok2 := sc("sess.cache_misses")
		evicts, ok3 := sc("sess.cache_evictions")
		wbBlocks, ok4 := sc("sess.wb_blocks")
		wbFlushes, ok5 := sc("sess.wb_flushes")
		M.set("cdd.session.hit_ratio", ratio(hits, hits+misses, !ok1, !ok2))
		M.set("cdd.session.evictions_per_op", ratio(evicts, ops, !ok3))
		M.set("cdd.session.wb_blocks_per_flush", ratio(wbBlocks, wbFlushes, !ok4, !ok5))
		M.set("cdd.session.remote_reads_per_op", ratio(d(win.before.mgrReads, win.after.mgrReads), ops, miss("mgr.read_ops")))
		M.set("cdd.session.remote_writes_per_op", ratio(d(win.before.mgrWrites, win.after.mgrWrites), ops, miss("mgr.write_ops")))
	} else {
		M.set(def.engine+".self_us_per_op", ratio(float64(lt.selfNS["array"])/1e3, ops))
		M.set("cdd.dev_wait_us_per_op", ratio(float64(lt.childNS["array"])/1e3, ops))
		M.set("cdd.dev_calls_per_op", ratio(float64(lt.calls["dev"]), ops))
		straggler := math.NaN()
		if len(lt.stragglers) > 0 {
			straggler = median(lt.stragglers)
		}
		M.set("cdd.straggler_ratio", straggler)
		M.set("transport.wire_us_per_op", ratio((float64(lt.sumNS["dev"])-serverNS)/1e3, ops, noLat))
	}
	M.set("cdd.server_us_per_op", ratio(serverNS/1e3, ops, noLat))
	M.set("disk.write_bytes_per_user_byte", ratio(d(win.before.diskBytesWrite, win.after.diskBytesWrite), float64(wBytes)))
	M.set("disk.read_bytes_per_user_byte", ratio(d(win.before.diskBytesRead, win.after.diskBytesRead), float64(rBytes)))

	switch def.name {
	case "fs_andrew":
		M.set("fsim.self_us_per_op", ratio(float64(lt.selfNS["fsim"])/1e3, ops))
		M.set("fsim.array_calls_per_op", ratio(float64(lt.calls["array"]), ops))
		M.set("fsim.array_bytes_per_user_byte", ratio(float64(lt.bytes["array"]), float64(rBytes+wBytes)))
		for _, p := range fsReportedPhases {
			M.set("fsim.phase_"+p+"_s", median(win.extra["phase_"+p+"_s"]))
		}
	case "rs_degraded":
		M.set("raid.degraded_read_mbps", median(trSamples["degraded_read_mbps"]))
		M.set("raid.rebuild_mbps", median(win.extra["rebuild_mbps"]))
	}

	// Allocation counts come from the reference window: the tracer's own
	// contexts and spans would otherwise be billed to the program.
	M.set("runtime.allocs_per_op", ratio(float64(refWin.after.mallocs-refWin.before.mallocs), float64(refOps)))
	refHead, trHead := median(refSamples[def.headline]), median(trSamples[def.headline])
	M.set("overhead_pct", 100*ratio(refHead-trHead, refHead))
	// The latency percentiles come from the reference window too: they
	// are the program's, not the traced program's. Like every metric they
	// are taken per slice, then the median over slices.
	if tailWorkloads[def.name] {
		for _, name := range tailMetrics {
			out.Metrics["tail."+def.name+"."+name] = median(refSamples[name])
		}
	}

	out.Attempted = ref.acc.attempted + e.acc.attempted
	out.Failed = ref.acc.failed + e.acc.failed
	return out, nil
}
