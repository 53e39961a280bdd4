package repair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/repair"
	"repro/internal/store"
)

const bs = 1024

// array is what the drills need of an engine under supervision.
type array interface {
	raid.Array
	raid.Restorer // = repair.Array
	raid.DevSwapper
	raid.Verifier
}

// engine is one redundancy policy the supervisor drills run over.
type engine struct {
	name  string
	devs  int
	build func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (array, error)
}

// attach hands a freshly built internal/raid engine its intent log and
// registry, the way core.Options does for RAID-x.
func attach[A array](a A, err error, il *intent.Log, reg *obs.Registry) (array, error) {
	if err != nil {
		return nil, err
	}
	a.Members().Attach(il, reg, nil)
	return a, nil
}

var (
	engRAIDx = engine{"raidx", 4, func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (array, error) {
		return core.New(devs, 4, 1, core.Options{Intent: il, Obs: reg})
	}}
	engRAID5 = engine{"raid5(4)", 4, func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (array, error) {
		a, err := raid.NewRAID5(devs)
		return attach(a, err, il, reg)
	}}
	engChained = engine{"chained(4)", 4, func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (array, error) {
		a, err := raid.NewChained(devs)
		return attach(a, err, il, reg)
	}}
)

// engRS is rs(k,2).
func engRS(k int) engine {
	return engine{fmt.Sprintf("rs(%d,2)", k), k + 2, func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (array, error) {
		a, err := raid.NewRS(devs, 2)
		return attach(a, err, il, reg)
	}}
}

// drillEngines are the policies every supervisor drill runs over, with
// the same assertions.
func drillEngines() []engine { return []engine{engRAIDx, engRS(4), engRAID5, engChained} }

// harness is a supervised test array over instant mem disks.
type harness struct {
	arr array
	rx  *core.RAIDx // arr, when the engine is RAID-x
	raw []*disk.Disk
	il  *intent.Log
	sp  *raid.Sparer
	// spares are the pool's disks; the Sparer hands them out last first.
	spares []*disk.Disk
	reg    *obs.Registry
	sup    *repair.Supervisor
}

// newHarness supervises a RAID-x array over nodes single-disk nodes.
func newHarness(t *testing.T, nodes int, blocks int64, spares int, cfg repair.Config) *harness {
	e := engRAIDx
	e.devs = nodes
	return newEngineHarness(t, e, blocks, spares, cfg)
}

func newEngineHarness(t *testing.T, e engine, blocks int64, spares int, cfg repair.Config) *harness {
	t.Helper()
	devs := make([]raid.Dev, e.devs)
	raw := make([]*disk.Disk, e.devs)
	for i := range devs {
		d := disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	il := intent.NewLog(e.devs, blocks, 8)
	reg := obs.NewRegistry()
	arr, err := e.build(devs, il, reg)
	if err != nil {
		t.Fatal(err)
	}
	var sp *raid.Sparer
	var spareDisks []*disk.Disk
	if spares > 0 {
		pool := make([]raid.Dev, spares)
		for i := range pool {
			d := disk.New(nil, fmt.Sprintf("spare%d", i), store.NewMem(bs, blocks), disk.DefaultModel())
			pool[i] = d
			spareDisks = append(spareDisks, d)
		}
		sp = raid.NewSparer(arr, pool)
	}
	cfg.Obs = reg
	rx, _ := arr.(*core.RAIDx)
	return &harness{arr: arr, rx: rx, raw: raw, il: il, sp: sp, spares: spareDisks, reg: reg, sup: repair.New(arr, sp, cfg)}
}

func (h *harness) fillRandom(t *testing.T, seed int64) []byte {
	t.Helper()
	ctx := context.Background()
	data := make([]byte, h.arr.Blocks()*int64(bs))
	rand.New(rand.NewSource(seed)).Read(data)
	if err := h.arr.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := h.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return data
}

// waitState polls until member idx reaches want (or the deadline).
func (h *harness) waitState(t *testing.T, idx int, want repair.State, d time.Duration) {
	t.Helper()
	h.waitFor(t, d, fmt.Sprintf("member %d to reach %q", idx, want), func() bool {
		return h.sup.DevState(idx) == want
	})
}

// waitFor polls cond until true or the deadline.
func (h *harness) waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func countEvents(reg *obs.Registry, kind obs.EventKind) int {
	n := 0
	for _, e := range reg.Events().Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// checkHealed asserts the end state every drill shares: redundancy
// verifies clean and the content equals the shadow.
func (h *harness) checkHealed(t *testing.T, shadow []byte, after string) {
	t.Helper()
	ctx := context.Background()
	if err := h.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.arr.Verify(ctx); err != nil {
		t.Fatalf("verify after %s: %v", after, err)
	}
	got := make([]byte, len(shadow))
	if err := h.arr.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatalf("data wrong after %s", after)
	}
}

// waitRebuilt waits until member idx has been rebuilt once and is healthy.
func (h *harness) waitRebuilt(t *testing.T, sup *repair.Supervisor, idx int, what string) {
	t.Helper()
	h.waitFor(t, 10*time.Second, what, func() bool {
		st := sup.Status()
		return st.Devices[idx].Rebuilds == 1 && st.Devices[idx].State == repair.StateHealthy
	})
}

// TestRepairSupervisorAutoSpareRebuild: a member that dies past the
// failure budget is replaced by a hot spare and rebuilt, hands-off, and
// the array verifies clean afterwards — whatever the redundancy policy.
func TestRepairSupervisorAutoSpareRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.name, func(t *testing.T) {
			h := newEngineHarness(t, e, 400, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Millisecond,
			})
			data := h.fillRandom(t, 41)
			h.sup.Start(context.Background())
			defer h.sup.Stop()

			const victim = 2
			h.raw[victim].Fail()
			h.waitRebuilt(t, h.sup, victim, "auto spare rebuild")

			if h.sp.SparesLeft() != 0 {
				t.Fatalf("%d spares left, want 0", h.sp.SparesLeft())
			}
			if len(h.sp.Retired()) != 1 {
				t.Fatalf("%d retired, want 1", len(h.sp.Retired()))
			}
			h.checkHealed(t, data, "auto failover")
			if countEvents(h.reg, obs.EventRepairState) < 3 {
				t.Fatal("state transitions not recorded in the event log")
			}
			if countEvents(h.reg, obs.EventRebuildStart) != 1 || countEvents(h.reg, obs.EventSwap) != 1 {
				t.Fatal("swap and rebuild not recorded in the event log")
			}
		})
	}
}

// TestRepairSupervisorDeltaResync: a member that blips and returns with
// stale data inside the failure budget is delta-resynced from the
// intent log — no spare consumed, traffic a small fraction of the disk.
func TestRepairSupervisorDeltaResync(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.name, func(t *testing.T) {
			const blocks = 400
			h := newEngineHarness(t, e, blocks, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Second, // blip well inside the budget
			})
			data := h.fillRandom(t, 42)
			ctx := context.Background()
			h.sup.Start(ctx)
			defer h.sup.Stop()

			const victim = 1
			h.raw[victim].Fail()
			h.waitState(t, victim, repair.StateSuspect, 5*time.Second)
			// Degraded writes while the member is away leave intents behind.
			rng := rand.New(rand.NewSource(43))
			for i := 0; i < 8; i++ {
				lb := rng.Int63n(h.arr.Blocks())
				buf := make([]byte, bs)
				rng.Read(buf)
				if err := h.arr.WriteBlocks(ctx, lb, buf); err != nil {
					t.Fatal(err)
				}
				copy(data[lb*int64(bs):], buf)
			}
			if err := h.arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if h.il.DirtyRegions(victim) == 0 {
				t.Fatal("degraded writes left no intents against the absent member")
			}
			h.raw[victim].Readmit() // back with stale contents
			h.waitFor(t, 5*time.Second, "delta resync", func() bool {
				st := h.sup.Status()
				return st.Devices[victim].Resyncs >= 1 && st.Devices[victim].State == repair.StateHealthy
			})

			st := h.sup.Status()
			if st.Devices[victim].Resyncs != 1 || st.Devices[victim].Rebuilds != 0 {
				t.Fatalf("resyncs=%d rebuilds=%d, want 1 resync and no rebuild",
					st.Devices[victim].Resyncs, st.Devices[victim].Rebuilds)
			}
			deviceBytes := int64(blocks) * bs
			if rb := st.Devices[victim].ResyncBytes; rb == 0 || rb >= deviceBytes/4 {
				t.Fatalf("resync moved %d bytes, want a small nonzero fraction of %d", rb, deviceBytes)
			}
			if h.sp.SparesLeft() != 1 {
				t.Fatal("resync consumed a spare")
			}
			h.checkHealed(t, data, "delta resync")
		})
	}
}

// TestRepairPauseResumeMidRebuild: pausing cancels the running rebuild
// at its next pace point with the checkpoint intact; resuming finishes
// the job instead of restarting it.
func TestRepairPauseResumeMidRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.name, func(t *testing.T) {
			h := newEngineHarness(t, e, 800, 2, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 5 * time.Millisecond,
				// One 128 KiB chunk every ~80 ms against an 800 KiB job: slow
				// enough to pause mid-flight, fast enough to finish promptly.
				RateBytesPerSec: 128 * rebuildChunkBytes() / 10,
			})
			data := h.fillRandom(t, 44)
			h.sup.Start(context.Background())
			defer h.sup.Stop()

			const victim = 0
			h.raw[victim].Fail()
			h.waitState(t, victim, repair.StateRebuilding, 5*time.Second)
			h.sup.Pause()
			// Give the cancel time to land, then note the frozen checkpoint.
			time.Sleep(50 * time.Millisecond)
			if st := h.sup.DevState(victim); st != repair.StateRebuilding {
				t.Fatalf("paused mid-rebuild state = %q, want rebuilding", st)
			}
			frozen := h.sup.Status().Devices[victim].Prog
			time.Sleep(50 * time.Millisecond)
			if now := h.sup.Status().Devices[victim].Prog; now != frozen {
				t.Fatalf("checkpoint advanced while paused: %+v -> %+v", frozen, now)
			}
			if !h.sup.Paused() {
				t.Fatal("supervisor does not report paused")
			}
			h.sup.Resume()
			h.waitRebuilt(t, h.sup, victim, "resumed rebuild")
			h.checkHealed(t, data, "pause/resume rebuild")
		})
	}
}

// rebuildChunkBytes mirrors the repair loop's chunk size in bytes for
// rate arithmetic (128 blocks × 1 KiB test blocks).
func rebuildChunkBytes() int64 { return 128 * bs }

// TestRepairScrubEscalatesToRebuild: corruption the intent log never
// saw (a lost write) is caught by the post-resync sampled scrub, which
// escalates the member to a full rebuild-in-place — no spare consumed.
func TestRepairScrubEscalatesToRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.name, func(t *testing.T) {
			h := newEngineHarness(t, e, 400, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Second,
				ScrubStride:   1, // exhaustive scrub so the corruption is always sampled
			})
			data := h.fillRandom(t, 45)
			ctx := context.Background()

			const victim = 3
			h.raw[victim].Fail()
			// A degraded write over the first blocks of every member, so
			// readmission takes the resync path at all.
			buf := bytes.Repeat([]byte{0xAB}, 2*e.devs*bs)
			if err := h.arr.WriteBlocks(ctx, 0, buf); err != nil {
				t.Fatal(err)
			}
			copy(data, buf)
			if err := h.arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if h.il.DirtyRegions(victim) == 0 {
				t.Fatal("the degraded write left no intents against the absent member")
			}
			h.raw[victim].Readmit()
			// Corrupt a block of the readmitted device that holds array
			// content, far from the dirty regions, behind the intent log's
			// back — the write the log "lost".
			if err := h.raw[victim].WriteBlocks(ctx, 50, bytes.Repeat([]byte{0xEE}, bs)); err != nil {
				t.Fatal(err)
			}

			h.sup.Start(ctx)
			defer h.sup.Stop()
			h.waitRebuilt(t, h.sup, victim, "scrub escalation to full rebuild")
			if st := h.sup.Status(); st.Devices[victim].Resyncs != 0 {
				t.Fatalf("resyncs = %d, want 0 (the resync must not count as completed)", st.Devices[victim].Resyncs)
			}
			if h.sp.SparesLeft() != 1 {
				t.Fatal("escalated rebuild-in-place consumed a spare")
			}
			h.checkHealed(t, data, "escalated rebuild")
		})
	}
}

// TestRepairWritesWhileSpareBlank drives foreground I/O at every pace
// point of a supervised rebuild — between two chunks, so the schedule is
// deterministic — while the swapped-in spare is still blank. Around the
// start of the member, the rebuild cursor and the end of the member it
// writes every block of n consecutive stripes one at a time (the rotation
// puts the spare under every role in turn: the covered shard, a parity
// shard, an uncovered one; for mirrors, either copy), one full stripe and
// one unaligned multi-stripe range, then reads the stripes back: every
// read must match the shadow — never the spare's zeros — and the spare
// must not have been read at all, not even by a read-modify-write; after
// the rebuild the redundancy must verify clean over the same content.
func TestRepairWritesWhileSpareBlank(t *testing.T) {
	for _, e := range []engine{engRS(6), engRAID5, engChained} {
		t.Run(e.name, func(t *testing.T) {
			const blocks, victim = 400, 1
			ctx := context.Background()
			var h *harness
			var shadow []byte
			var width, stripes int64 // logical blocks per stripe; stripes in the array
			rng := rand.New(rand.NewSource(47))
			write := func(lb, n int64) {
				buf := make([]byte, n*bs)
				rng.Read(buf)
				if err := h.arr.WriteBlocks(ctx, lb, buf); err != nil {
					t.Errorf("write [%d,+%d) while the spare is blank: %v", lb, n, err)
				}
				copy(shadow[lb*bs:], buf)
			}
			steps := 0
			// The hook runs on the supervisor's goroutine, inside the
			// rebuild's pace call; the test goroutine reads what it wrote
			// only after the supervisor reports the rebuild complete.
			hook := func(context.Context, int) error {
				steps++
				n := int64(e.devs)
				for _, s0 := range []int64{0, min(int64(steps)*128, stripes-n), stripes - n} {
					for lb := s0 * width; lb < (s0+n)*width; lb++ {
						write(lb, 1)
					}
					write(s0*width, width)
					write(s0*width+1, 2*width+width/2)
					got := make([]byte, n*width*bs)
					if err := h.arr.ReadBlocks(ctx, s0*width, got); err != nil {
						t.Errorf("read of stripes [%d,+%d) while the spare is blank: %v", s0, n, err)
					} else if !bytes.Equal(got, shadow[s0*width*bs:(s0+n)*width*bs]) {
						t.Errorf("step %d: stripes [%d,+%d) read back wrong while the spare is blank", steps, s0, n)
					}
				}
				if reads, _, _, _ := h.spares[0].Stats(); reads != 0 {
					t.Errorf("step %d: the blank spare has served %d reads", steps, reads)
				}
				return nil
			}
			h = newEngineHarness(t, e, blocks, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 5 * time.Millisecond,
				Pace:          hook,
			})
			shadow = h.fillRandom(t, 46)
			ext, _ := h.arr.Extents()
			stripes = ext[0][1] - ext[0][0]
			width = h.arr.Blocks() / stripes
			h.sup.Start(ctx)
			defer h.sup.Stop()
			h.raw[victim].Fail()
			h.waitRebuilt(t, h.sup, victim, "supervised rebuild under foreground writes")
			if steps < 3 {
				t.Fatalf("the rebuild paced %d times, want one pace point per chunk", steps)
			}
			h.checkHealed(t, shadow, "writes while the spare was blank")
		})
	}
}

// TestRepairStatusJSON: the wire status decodes and carries the device
// states.
func TestRepairStatusJSON(t *testing.T) {
	h := newHarness(t, 4, 400, 0, repair.Config{Poll: time.Hour})
	b, err := h.sup.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	var st repair.Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Devices) != 4 || st.Active != -1 || st.Spares != -1 {
		t.Fatalf("status = %+v", st)
	}
	for _, d := range st.Devices {
		if d.State != repair.StateHealthy {
			t.Fatalf("fresh supervisor reports %q", d.State)
		}
	}
	// A rebuild checkpoint is one counter on the wire.
	raw, err := json.Marshal(repair.DevStatus{Prog: raid.RebuildProgress{Done: 256, Total: 800, Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"rebuild":{"done":256,"total":800,"epoch":1}`; !bytes.Contains(raw, []byte(want)) {
		t.Fatalf("device status %s does not carry %s", raw, want)
	}
}
