package bench

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/andrew"
	"repro/internal/chkpt"
	"repro/internal/cluster"
	"repro/internal/core"
)

// small cluster parameters keep unit tests quick; the full 12-node
// reproduction runs from cmd/raidxbench and the root bench suite.
// coreOptions returns the default RAID-x engine options for tests.
func coreOptions() core.Options { return core.Options{} }

func testParams() cluster.Params {
	p := cluster.DefaultParams()
	p.Nodes = 4
	p.DiskBlocks = 1024
	return p
}

func TestRigBuildsAllSystems(t *testing.T) {
	for _, sys := range AllSystems() {
		rig, err := NewRig(testParams(), sys, 3, coreOptions())
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if len(rig.Arrays) != 3 {
			t.Fatalf("%s: %d arrays", sys, len(rig.Arrays))
		}
		if rig.Arrays[0].Blocks() == 0 {
			t.Fatalf("%s: zero capacity", sys)
		}
	}
}

func TestBandwidthDeterministic(t *testing.T) {
	cfg := Config{LargeBytes: 1 << 20, SmallOps: 8}
	a, err := Bandwidth(testParams(), RAIDx, LargeRead, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bandwidth(testParams(), RAIDx, LargeRead, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("non-deterministic: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.MBps <= 0 {
		t.Fatalf("nonpositive bandwidth %v", a.MBps)
	}
}

// TestFigure5Shapes asserts the paper's qualitative results on a small
// cluster: RAID-x beats RAID-5 on small writes by a wide margin, beats
// NFS everywhere, and no architecture beats RAID-x on writes.
func TestFigure5Shapes(t *testing.T) {
	p := testParams()
	cfg := Config{LargeBytes: 1 << 20, SmallOps: 8}
	clients := 4

	get := func(sys System, pat Pattern) float64 {
		r, err := Bandwidth(p, sys, pat, clients, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", sys, pat, err)
		}
		return r.MBps
	}

	// Small write: RAID-x >> RAID-5 (the small-write problem).
	xw, r5w := get(RAIDx, SmallWrite), get(RAID5, SmallWrite)
	if xw < 2*r5w {
		t.Errorf("small write: raidx %.2f MB/s not >= 2x raid5 %.2f MB/s", xw, r5w)
	}
	// Large write: RAID-x >= RAID-10 (background + gathered mirrors).
	xlw, r10lw := get(RAIDx, LargeWrite), get(RAID10, LargeWrite)
	if xlw < r10lw {
		t.Errorf("large write: raidx %.2f MB/s < raid10 %.2f MB/s", xlw, r10lw)
	}
	// Everything beats the central server.
	nfsr := get(NFS, LargeRead)
	xr := get(RAIDx, LargeRead)
	if xr <= nfsr {
		t.Errorf("large read: raidx %.2f MB/s not above nfs %.2f MB/s", xr, nfsr)
	}
}

// TestScalingImprovesWithClients: RAID-x aggregate bandwidth must grow
// with client count (the scalability claim of Table 3).
func TestScalingImprovesWithClients(t *testing.T) {
	p := testParams()
	cfg := Config{LargeBytes: 1 << 20, SmallOps: 8}
	one, err := Bandwidth(p, RAIDx, LargeRead, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Bandwidth(p, RAIDx, LargeRead, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if four.MBps <= one.MBps {
		t.Errorf("no scaling: 1 client %.2f MB/s, 4 clients %.2f MB/s", one.MBps, four.MBps)
	}
}

func TestTable3Rows(t *testing.T) {
	p := testParams()
	cfg := Config{LargeBytes: 512 << 10, SmallOps: 4}
	rows, err := Table3(p, []System{RAIDx, NFS}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.OneClient <= 0 || r.ManyClients <= 0 {
			t.Errorf("%s/%s: nonpositive bandwidth", r.System, r.Pattern)
		}
	}
}

func TestWorkloadTooLargeRejected(t *testing.T) {
	p := testParams()
	p.DiskBlocks = 64
	cfg := Config{LargeBytes: 64 << 20, SmallOps: 4}
	if _, err := Bandwidth(p, RAIDx, LargeWrite, 4, cfg); err == nil {
		t.Fatal("oversized workload accepted")
	}
}

func TestDegradedSweepShapes(t *testing.T) {
	p := testParams()
	cfg := Config{LargeBytes: 512 << 10, SmallOps: 4}
	rs, err := DegradedSweep(p, RAIDx, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byState := map[ArrayState]DegradedResult{}
	for _, r := range rs {
		byState[r.State] = r
	}
	if byState[StateNormal].MBps <= 0 {
		t.Fatal("no normal bandwidth")
	}
	// Degraded can't beat normal; rebuilding can't beat degraded.
	if byState[StateDegraded].MBps > byState[StateNormal].MBps*1.01 {
		t.Errorf("degraded %.2f > normal %.2f", byState[StateDegraded].MBps, byState[StateNormal].MBps)
	}
	if byState[StateRebuilding].RebuildTime <= 0 {
		t.Error("rebuild time not measured")
	}
}

// TestDegradedSweepReadsPrefill: at the parameters of `raidxbench
// degraded`, every client of the four default systems reads back the
// prefill pattern in every state — a rebuilding column that timed reads
// of the emptied disk would be measuring wrong answers.
func TestDegradedSweepReadsPrefill(t *testing.T) {
	p := cluster.DefaultParams()
	cfg := Config{LargeBytes: 2 << 20, SmallOps: 16}
	want := prefillPattern(p.BlockSize)
	for _, sys := range []System{RAID5, RAID10, Chained, RAIDx} {
		var mu sync.Mutex
		wrong := map[ArrayState]int{}
		total := map[ArrayState]int{}
		check := func(state ArrayState, lb int64, got []byte) {
			mu.Lock()
			defer mu.Unlock()
			bs := p.BlockSize
			for i := 0; i*bs < len(got); i++ {
				off := int((lb+int64(i))%prefillChunk) * bs
				total[state]++
				if !bytes.Equal(got[i*bs:(i+1)*bs], want[off:off+bs]) {
					wrong[state]++
				}
			}
		}
		if _, err := degradedSweep(p, sys, 8, cfg, check); err != nil {
			t.Fatal(err)
		}
		for _, state := range []ArrayState{StateNormal, StateDegraded, StateRebuilding} {
			if total[state] == 0 || wrong[state] != 0 {
				t.Errorf("%s %s: %d of %d blocks read differ from the prefill", sys, state, wrong[state], total[state])
			}
		}
	}
}

func TestAFRAIDSitsBetweenRAID5AndRAIDx(t *testing.T) {
	p := testParams()
	cfg := Config{LargeBytes: 512 << 10, SmallOps: 8}
	get := func(sys System) float64 {
		r, err := Bandwidth(p, sys, SmallWrite, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.MBps
	}
	r5, af, rx := get(RAID5), get(AFRAID), get(RAIDx)
	if !(af > 2*r5) {
		t.Errorf("afraid small write %.2f not >> raid5 %.2f", af, r5)
	}
	// AFRAID and RAID-x both defer redundancy: comparable small writes.
	if af < rx*0.8 || af > rx*1.2 {
		t.Errorf("afraid %.2f not comparable to raidx %.2f", af, rx)
	}
}

func TestFigure5SweepAndAndrewSmoke(t *testing.T) {
	p := testParams()
	cfg := Config{LargeBytes: 256 << 10, SmallOps: 2}
	rs, err := Figure5(p, []System{RAIDx}, []Pattern{LargeRead, SmallWrite}, []int{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("%d results, want 4", len(rs))
	}
	for _, r := range rs {
		if r.MBps <= 0 || r.Bottleneck == "" {
			t.Fatalf("bad result %+v", r)
		}
	}
	acfg := andrew.DefaultConfig()
	acfg.Dirs, acfg.Files = 2, 4
	ar, err := RunAndrew(p, RAIDx, 2, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Total <= 0 {
		t.Fatal("zero Andrew total")
	}
	cr, err := RunCheckpoint(p, chkpt.StripedStaggered, chkpt.Config{Processes: 4, ImageBytes: 64 << 10, Slots: 2, LocalImages: true})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Makespan <= 0 {
		t.Fatal("zero checkpoint makespan")
	}
}
