package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	raidx "repro"
)

func TestGeneratorIsDeterministicPerSeedAndClient(t *testing.T) {
	draw := func(seed uint64, client int) []int64 {
		g := newMixedIO(seed, 2, 4096)
		var out []int64
		for i := 0; i < 1000; i++ {
			off, isRead := g.next(client)
			if isRead {
				off = -off - 1
			}
			out = append(out, off)
		}
		return out
	}
	equal := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !equal(draw(7, 0), draw(7, 0)) || !equal(draw(7, 1), draw(7, 1)) {
		t.Fatal("same seed and client gave different operations")
	}
	if equal(draw(7, 0), draw(8, 0)) {
		t.Fatal("different seeds gave the same operations")
	}
	if equal(draw(7, 0), draw(7, 1)) {
		t.Fatal("two clients of one seed gave the same operations")
	}
	// The mix is 70% reads and skewed: the hottest block of 4096 gets
	// far more than a uniform 1/4096 share under Zipf 0.9.
	g := newMixedIO(1, 1, 4096)
	reads, hits := 0, map[int64]int{}
	const n = 200_000
	for i := 0; i < n; i++ {
		off, isRead := g.next(0)
		if isRead {
			reads++
		}
		hits[off]++
	}
	if share := float64(reads) / n; math.Abs(share-readShare) > 0.01 {
		t.Errorf("read share %.3f, want %.2f", share, readShare)
	}
	top := 0
	for _, c := range hits {
		top = max(top, c)
	}
	if share := float64(top) / n; share < 0.02 {
		t.Errorf("hottest block drew %.4f of the ops; Zipf %.1f over 4096 keys gives about 0.04", share, zipfS)
	}

	a, _, abytes := fsTree(3)
	b, _, bbytes := fsTree(4)
	if len(a) != fsDirs || abytes != bbytes {
		t.Errorf("fs tree: %d dirs, %d vs %d bytes; every seed must copy the same amount", len(a), abytes, bbytes)
	}
	_ = b
}

func TestStampsDetectWrongBlockVersionAndPayload(t *testing.T) {
	m := newModel(9, 8)
	buf := make([]byte, 2*blockSize)
	m.fillNext(3, buf, blockSize)
	if bad := m.check(3, buf, blockSize, true); bad != 0 {
		t.Fatalf("fresh fill does not verify: %d bad", bad)
	}
	if bad := m.check(4, buf, blockSize, false); bad != 2 {
		t.Errorf("blocks read at the wrong address: %d bad, want 2", bad)
	}
	buf[blockSize+100] ^= 1
	if bad := m.check(3, buf, blockSize, false); bad != 0 {
		t.Errorf("stamp-only check saw a payload flip")
	}
	if bad := m.check(3, buf, blockSize, true); bad != 1 {
		t.Errorf("full check missed a payload flip: %d bad, want 1", bad)
	}
	m.versions[3]++
	if bad := m.check(3, buf[:blockSize], blockSize, false); bad != 1 {
		t.Errorf("stale version not detected")
	}
}

func TestSpanSelfTimeUsesUnionOfChildren(t *testing.T) {
	// One op [0,100): an array call [10,90) with three dev children,
	// two overlapping ([20,50) and [40,70) cover [20,70) = 50) and one
	// apart ([75,85) = 10). Union 60, so array self = 80-60 = 20, and
	// the op's self = 100-80 = 20.
	spans := []span{
		{Name: "op.write", Start: 0, End: 100, ID: 0, Parent: -1, Op: 0},
		{Name: "array.write", Start: 10, End: 90, ID: 1, Parent: 0, Op: 0, Bytes: 4096},
		{Name: "dev.write", Start: 20, End: 50, ID: 2, Parent: 1, Op: 0},
		{Name: "dev.write", Start: 40, End: 70, ID: 3, Parent: 1, Op: 0},
		{Name: "dev.write_bg", Start: 75, End: 85, ID: 4, Parent: 1, Op: 0},
		// A span that started before the window is not counted.
		{Name: "op.read", Start: -50, End: -10, ID: 5, Parent: -1, Op: 5},
	}
	lt := analyze(spans, 0, 1000)
	want := map[string]int64{"op": 20, "array": 20, "dev": 70}
	for layer, w := range want {
		if lt.selfNS[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, lt.selfNS[layer], w)
		}
	}
	if lt.childNS["array"] != 60 {
		t.Errorf("dev wait under array = %d, want the union 60", lt.childNS["array"])
	}
	if lt.sumNS["dev"] != 70 || lt.calls["dev"] != 3 || lt.calls["op"] != 1 {
		t.Errorf("dev sum %d calls %d, op calls %d", lt.sumNS["dev"], lt.calls["dev"], lt.calls["op"])
	}
	// Slowest child 30, median child 30 (of 10,30,30).
	if len(lt.stragglers) != 1 || lt.stragglers[0] != 1 {
		t.Errorf("stragglers %v, want [1]", lt.stragglers)
	}
	if got := unionLen([]interval{{5, 15}, {0, 30}, {28, 40}}, 0, 35); got != 35 {
		t.Errorf("union clipped to the parent = %d, want 35", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); p != 10 {
		t.Errorf("p99 of ten = %v", p)
	}
}

// mgrOps runs the same fixed sequence of 64 KiB writes and reads on a
// small mirror array, with or without the benchmark's wrappers, and
// returns the managers' op counts.
func mgrOps(t *testing.T, tr *tracer) (reads, writes, bg int64) {
	t.Helper()
	e := &env{seed: 5, clients: 1, tr: tr}
	r, err := newMirrorRig(tr, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	io := newBlockIO(e, r.arr, newModel(e.seed, r.engine.Blocks()), 1, bigIO)
	before := r.counters()
	var tl tally
	for _, cur := range io.cursors() {
		for i := 0; i < 100; i++ {
			io.write(0, &tl, cur.v.next())
		}
	}
	if err := io.flush(); err != nil {
		t.Fatal(err)
	}
	for _, cur := range io.cursors() {
		for i := 0; i < 100; i++ {
			io.read(0, &tl, cur.v.next())
		}
	}
	after := r.counters()
	if tl.failed != 0 || tl.attempted != 200 {
		t.Fatalf("%d of %d ops failed", tl.failed, tl.attempted)
	}
	return after.mgrReads - before.mgrReads, after.mgrWrites - before.mgrWrites, after.mgrBG - before.mgrBG
}

// If the wrapper Dev dropped the vectored interface the engine would
// coalesce through a staging buffer; if it split calls the managers
// would see more ops. Either way the traced run would be measuring a
// different program. The op sequence is fixed (not 200 ms of wall
// clock) so the counts must match exactly.
func TestTracedDevForwardsVectoredAndBacklogInterfaces(t *testing.T) {
	r0, w0, b0 := mgrOps(t, nil)
	tr := newTracer()
	r1, w1, b1 := mgrOps(t, tr)
	if r0 != r1 || w0 != w1 || b0 != b1 {
		t.Errorf("manager ops differ with the wrapper: reads %d vs %d, writes %d vs %d, bg writes %d vs %d", r0, r1, w0, w1, b0, b1)
	}
	if r0 == 0 || w0 == 0 || b0 == 0 {
		t.Errorf("expected reads, writes and background writes, got %d %d %d", r0, w0, b0)
	}
	lt := analyze(tr.snapshot(), 0, math.MaxInt64)
	if lt.calls["op"] != 200 || lt.calls["array"] != 201 || lt.calls["dev"] == 0 {
		t.Errorf("spans: %d ops, %d array calls, %d dev calls", lt.calls["op"], lt.calls["array"], lt.calls["dev"])
	}
	// 64 KiB over four columns is one vectored call per column, not one
	// per block: data writes + reads are 4 per op.
	if perOp := float64(w0) / 100; perOp != 4 {
		t.Errorf("%v foreground writes per 64 KiB op, want 4 (one gather per column)", perOp)
	}
	var d raidx.Dev = &tracedDev{}
	if _, ok := d.(vecDev); !ok {
		t.Error("tracedDev lost the vectored interface")
	}
	if _, ok := d.(queueReporter); !ok {
		t.Error("tracedDev lost QueueBacklog")
	}
	if _, ok := d.(bgQueueReporter); !ok {
		t.Error("tracedDev lost BgQueueBacklog")
	}
}

func TestEveryWorkloadSmokeRoundAndCorruptionIsCounted(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			e := &env{seed: 11, clients: 2}
			inst, err := def.setup(e)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			slice := 200 * time.Millisecond / time.Duration(def.phases)
			win := inst.window(1, slice, false)
			inst.verify()
			if e.acc.failed != 0 || e.acc.attempted == 0 {
				t.Fatalf("%d of %d operations failed", e.acc.failed, e.acc.attempted)
			}
			s := samples{}
			for _, round := range win.rounds {
				s.addRound(round)
			}
			for name, v := range win.extra {
				s[name] = v
			}
			for _, md := range metricsOf(def.name) {
				switch md.name {
				case "setup_s", "cpu_s_per_gib", "peak_rss_mib", "failed_ops_frac":
					continue // measured by runE2E around the window
				}
				if v := s[md.name]; len(v) == 0 || !(v[0] > 0) {
					t.Errorf("metric %s: samples %v, want one positive value", md.name, v)
				}
			}
			if def.name != "mirror_small" {
				return
			}
			// Flip one byte of one stored block behind the engine's back:
			// the read-back must count it as a failed operation.
			w := inst.(*mirrorSmall)
			buf := make([]byte, blockSize)
			ctx := context.Background()
			if err := w.disks[1].ReadBlocks(ctx, 0, buf); err != nil {
				t.Fatal(err)
			}
			buf[blockSize/2] ^= 0x40
			if err := w.disks[1].WriteBlocks(ctx, 0, buf); err != nil {
				t.Fatal(err)
			}
			before := e.acc
			inst.verify()
			if got := e.acc.failed - before.failed; got != 1 {
				t.Errorf("corrupted block: %d failed ops in the read-back, want 1", got)
			}
			if frac := float64(e.acc.failed) / float64(e.acc.attempted); !(frac > 0) {
				t.Errorf("failed_ops_frac = %v after a corrupted read-back", frac)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 24} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 24} }
	// One quartile hugs the median, the other is far off: three processes
	// of which one was disturbed. The range is 14 %, wider than the bound.
	lopsided := func(m float64) summary { return summary{Median: m, Q1: m * 0.87, Q3: m * 1.01, N: 3} }
	higher := metricDef{name: "write_mbps", better: "higher", bound: 0.10}
	lower := metricDef{name: "fs_cycle_s", better: "lower", bound: 0.10}
	cases := []struct {
		name string
		md   metricDef
		a, b summary
		want string
	}{
		{"same", higher, tight(400), tight(401), vOK},
		{"faster is ok", higher, tight(400), tight(500), vOK},
		{"9% slower is inside the bound", higher, tight(400), tight(364), vOK},
		{"12% slower", higher, tight(400), tight(352), vRegressed},
		{"latency up 12%", lower, tight(40), tight(44.8), vRegressed},
		{"latency down", lower, tight(40), tight(30), vOK},
		{"baseline spread wider than the bound", higher, wide(400), tight(300), vUnresolved},
		{"candidate spread wider than the bound", lower, tight(40), wide(41), vUnresolved},
		{"a one-sided spread is a spread", higher, tight(400), lopsided(400), vUnresolved},
		{"a one-sided spread hides no regression", higher, lopsided(400), tight(300), vUnresolved},
		{"setup within the absolute floor", universalMetrics[0], tight(0.02), tight(0.03), vOK},
		{"setup beyond share and floor", universalMetrics[0], tight(1.0), tight(1.5), vRegressed},
		{"any failed op", failedOpsFrac, summary{}, summary{Median: 1e-6, Q1: 1e-6, Q3: 1e-6, N: 3}, vRegressed},
		{"no failed ops", failedOpsFrac, summary{}, summary{}, vOK},
	}
	for _, c := range cases {
		if _, got := judge(c.md, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// Whole files: B regresses one metric of one workload.
	mk := func(writeMBps float64, seed uint64) resultFile {
		rf := newResultFile(seed, 2)
		rf.Workloads = map[string]workloadResult{}
		for _, def := range workloads {
			wr := workloadResult{EndToEnd: map[string]summary{}, Attempted: 100}
			for _, md := range metricsOf(def.name) {
				wr.EndToEnd[md.name] = tight(100)
			}
			wr.EndToEnd["failed_ops_frac"] = summary{N: 3}
			rf.Workloads[def.name] = wr
		}
		rf.Workloads["mirror_large"].EndToEnd["write_mbps"] = tight(writeMBps)
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.json", mk(100, 1)), write("same.json", mk(101, 2)), write("slow.json", mk(70, 1))
	var out bytes.Buffer
	if code, err := compareFiles(&out, a, same); code != 0 || err != nil {
		t.Errorf("equal files: exit %d, %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "differs: seed: 1 vs 2") {
		t.Errorf("a differing seed is not reported:\n%s", out.String())
	}
	out.Reset()
	if code, _ := compareFiles(&out, a, slow); code != 1 || !strings.Contains(out.String(), vRegressed) {
		t.Errorf("regressed file: exit %d\n%s", code, out.String())
	}
	other := mk(100, 1)
	other.SliceMS = 250
	if code, err := compareFiles(&out, a, write("other.json", other)); code != 2 || err == nil {
		t.Errorf("a different slice length must make the files incomparable: exit %d, %v", code, err)
	}
}

// A per-layer metric that could not be measured must not reach the
// contract line as a number: most are lower-is-better, and a 0 would
// read as a perfect score.
func TestUnmeasuredMetricIsLeftOutAndNamed(t *testing.T) {
	m, unmeasured := contractMetrics(map[string]float64{
		"trace.mirror_small.cdd.server_us_per_op": math.NaN(),
		"ladder.disk.read_4k.ns":                  812.5,
	})
	if len(m) != 1 || m["ladder.disk.read_4k.ns"] != (contractMetric{Value: 812.5, Unit: "ns"}) {
		t.Errorf("metrics = %v, want the one that was measured", m)
	}
	if len(unmeasured) != 1 || unmeasured[0] != "trace.mirror_small.cdd.server_us_per_op" {
		t.Errorf("unmeasured = %v", unmeasured)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if code, err := dispatch(options{workload: "mirror_huge"}); code == 0 || err == nil {
		t.Errorf("unknown workload: exit %d, %v", code, err)
	}
	if code, err := dispatch(options{secs: 5}); code == 0 || err == nil {
		t.Errorf("-seconds without -workload: exit %d, %v", code, err)
	}
}

// BENCHMARK.json at the repository root is the contract other tools
// read; it must name exactly what this program emits. The ladder is
// run for real, with batches a twentieth of their usual length.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(universalMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(universalMetrics))
	}
	for i, md := range universalMetrics {
		got := spec.EndToEnd[i]
		if got.Name != md.name || got.Unit != md.unit || got.Better != md.better || got.Bound != md.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, md)
		}
	}

	var acc account
	rungs, err := runLadder(ladderBatch/20, &acc)
	if err != nil {
		t.Fatal(err)
	}
	if acc.failed != 0 {
		t.Errorf("%d of %d ladder operations failed", acc.failed, acc.attempted)
	}
	var want []string
	for name, v := range ladderMetrics(rungs) {
		if strings.HasSuffix(name, ".ns") && !(v > 0) {
			t.Errorf("%s = %v", name, v)
		}
		want = append(want, name)
	}
	for _, w := range workloads {
		want = append(want, perLayerNamesOf(w)...)
	}
	sort.Strings(want)
	var got []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name)
		if m.Unit != unitOf(m.Name) || m.Better != betterOf(m.Name) {
			t.Errorf("per-layer metric %s: BENCHMARK.json says %s/%s, the program %s/%s", m.Name, m.Unit, m.Better, unitOf(m.Name), betterOf(m.Name))
		}
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("per-layer names differ.\nBENCHMARK.json:\n%s\nprogram:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(want) > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", len(want))
	}
}
