package repair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/repair"
)

const bs = 1024

// raidx is the RAID-x row under the name the drills print.
var raidx = raidtest.RAIDx(4, 1).Named("raidx")

// drillEngines are the policies every supervisor drill runs over, with
// the same assertions.
func drillEngines() []raidtest.Engine {
	return []raidtest.Engine{raidx, raidtest.RS(4, 2), raidtest.RAID5(4), raidtest.Chained(4)}
}

// harness is a supervised test array over instant mem disks.
type harness struct {
	arr raidtest.Array
	rx  *core.RAIDx // arr, when the engine is RAID-x
	raw []*disk.Disk
	il  *intent.Log
	// spares are the pool's disks; the supervisor installs them last
	// first.
	spares []*disk.Disk
	reg    *obs.Registry
	sup    *repair.Supervisor
}

// newHarness supervises e over members of blocks blocks of bs bytes, with
// an intent log and a registry attached and spares disks in its pool.
func newHarness(t *testing.T, e raidtest.Engine, blocks int64, spares int, cfg repair.Config) *harness {
	return newHarnessOn(t, e, raidtest.Disks{BS: bs, Blocks: blocks}, spares, cfg)
}

// newHarnessOn is newHarness over members g describes; spares are of g's
// size, unwrapped.
func newHarnessOn(t *testing.T, e raidtest.Engine, g raidtest.Disks, spares int, cfg repair.Config) *harness {
	t.Helper()
	h := &harness{il: intent.NewLog(e.N, g.Blocks, 8), reg: obs.NewRegistry()}
	h.arr, h.raw = raidtest.Build[raidtest.Array](t, e.With(core.Options{Intent: h.il, Obs: h.reg}), g)
	h.rx, _ = h.arr.(*core.RAIDx)
	var pool []raid.Dev
	if spares > 0 {
		g.Wrap = nil
		pool, h.spares = g.Make(spares)
	}
	cfg.Obs = h.reg
	h.sup = repair.New(h.arr, pool, cfg)
	return h
}

// waitState polls until member idx reaches want.
func (h *harness) waitState(t *testing.T, idx int, want repair.State) {
	t.Helper()
	raidtest.Eventually(t, fmt.Sprintf("member %d to reach %q", idx, want), func() bool {
		return h.sup.DevState(idx) == want
	})
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
// verifies clean and the content is the shadow's.
func (h *harness) checkHealed(t *testing.T, sh *raidtest.Shadow, after string) {
	t.Helper()
	ctx := context.Background()
	if err := h.arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.arr.Verify(ctx); err != nil {
		t.Fatalf("verify after %s: %v", after, err)
	}
	sh.Check(t, after)
}

// waitRebuilt waits until member idx has been rebuilt once and is healthy.
func waitRebuilt(t *testing.T, sup *repair.Supervisor, idx int, what string) {
	t.Helper()
	raidtest.Eventually(t, what, func() bool {
		st := sup.Status()
		return st.Devices[idx].Rebuilds == 1 && st.Devices[idx].State == repair.StateHealthy
	})
}

// TestRepairSupervisorAutoSpareRebuild: a member that dies past the
// failure budget is replaced by a hot spare and rebuilt, hands-off, and
// the array verifies clean afterwards — whatever the redundancy policy.
func TestRepairSupervisorAutoSpareRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			h := newHarness(t, e, 400, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Millisecond,
			})
			sh := raidtest.Fill(t, h.arr)
			h.sup.Start(context.Background())
			defer h.sup.Stop()

			const victim = 2
			h.raw[victim].Fail()
			waitRebuilt(t, h.sup, victim, "auto spare rebuild")

			if n := h.sup.Status().Spares; n != 0 {
				t.Fatalf("%d spares left, want 0", n)
			}
			if h.arr.Members().Load().Devs[victim] != raid.Dev(h.spares[0]) {
				t.Fatal("the member's slot does not hold the spare")
			}
			h.checkHealed(t, sh, "auto failover")
			if countEvents(h.reg, obs.EventRepairState) < 3 {
				t.Fatal("state transitions not recorded in the event log")
			}
			if countEvents(h.reg, obs.EventRebuildStart) != 1 || countEvents(h.reg, obs.EventSwap) != 1 {
				t.Fatal("swap and rebuild not recorded in the event log")
			}
		})
	}
}

// TestRepairSpareDiesMidRebuild: a spare that dies mid-rebuild sends
// its member back to suspect; when the budget runs out again the next
// spare is installed and rebuilt, and the array heals. With the pool
// empty, a further failure leaves the member degraded.
func TestRepairSpareDiesMidRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			const victim = 2
			polls := &polled{}
			g := raidtest.Disks{BS: bs, Blocks: 400, Wrap: func(i int, d raid.Dev) raid.Dev {
				if i != victim+1 {
					return d
				}
				polls.Dev = d
				return polls
			}}
			h := newHarnessOn(t, e, g, 2, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Millisecond,
			})
			sh := raidtest.Fill(t, h.arr)
			first, second := h.spares[1], h.spares[0] // installed last first
			first.FailAfter(2)                        // the third chunk of its rebuild fails
			h.sup.Start(context.Background())
			defer h.sup.Stop()

			h.raw[victim].Fail()
			waitRebuilt(t, h.sup, victim, "the rebuild onto the second spare")
			if !slices.ContainsFunc(h.reg.Events().Events(), func(ev obs.Event) bool {
				return strings.Contains(ev.Detail, "rebuilding -> suspect: rebuild target failed")
			}) {
				t.Fatal("the dead spare did not send its member back to suspect")
			}
			if st := h.sup.Status(); st.Spares != 0 || countEvents(h.reg, obs.EventSwap) != 2 {
				t.Fatalf("%d spares left after %d swaps, want 0 after 2", st.Spares, countEvents(h.reg, obs.EventSwap))
			}
			if h.arr.Members().Load().Devs[victim] != raid.Dev(second) {
				t.Fatal("the member's slot does not hold the second spare")
			}
			h.checkHealed(t, sh, "a spare lost mid-rebuild")

			second.Fail()
			h.waitState(t, victim, repair.StateDegraded)
			from := polls.n.Load()
			raidtest.Eventually(t, "three ticks with the pool empty", func() bool { return polls.n.Load() >= from+3 })
			if st := h.sup.Status(); st.Devices[victim].State != repair.StateDegraded || st.Devices[victim].Rebuilds != 1 {
				t.Fatalf("with the pool empty the member is %q after %d rebuilds, want degraded after 1",
					st.Devices[victim].State, st.Devices[victim].Rebuilds)
			}
		})
	}
}

// TestRepairSpareBackMidRebuild: a spare that dropped out mid-rebuild
// and answers again is still blank, so the supervisor rebuilds it in
// place instead of calling it healthy.
func TestRepairSpareBackMidRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			const victim = 1
			h := newHarness(t, e, 400, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Millisecond,
			})
			sh := raidtest.Fill(t, h.arr)
			h.spares[0].FailAfter(2)
			h.sup.Start(context.Background())
			defer h.sup.Stop()

			h.raw[victim].Fail()
			raidtest.Eventually(t, "the dead spare to leave its member degraded", func() bool {
				st := h.sup.Status()
				return st.Spares == 0 && st.Devices[victim].State == repair.StateDegraded
			})
			h.spares[0].Readmit()
			waitRebuilt(t, h.sup, victim, "the readmitted spare's rebuild")
			h.checkHealed(t, sh, "a spare back mid-rebuild")
		})
	}
}

// TestRepairRefusedSpareStaysInPool: a spare the array refuses (wrong
// geometry) goes back in the pool, and its member stays degraded.
func TestRepairRefusedSpareStaysInPool(t *testing.T) {
	h := newHarness(t, raidx, 400, 0, repair.Config{Poll: time.Hour})
	tiny, _ := raidtest.Disks{BS: bs, Blocks: 8}.Make(1)
	sup := repair.New(h.arr, tiny, repair.Config{Poll: 2 * time.Millisecond})
	sup.Start(context.Background())
	defer sup.Stop()

	const victim = 1
	h.raw[victim].Fail()
	raidtest.Eventually(t, "the refused swap", func() bool {
		st := sup.Status().Devices[victim]
		return st.State == repair.StateDegraded && strings.Contains(st.LastErr, "geometry")
	})
	sup.Stop() // no swap in flight
	kept := h.arr.Members().Load().Devs[victim] == raid.Dev(h.raw[victim])
	if st := sup.Status(); st.Spares != 1 || !kept {
		t.Fatalf("after a refused swap: %d spares left (want 1), member %d kept: %v", st.Spares, victim, kept)
	}
}

// TestRepairSupervisorDeltaResync: a member that blips and returns with
// stale data inside the failure budget is delta-resynced from the
// intent log — no spare consumed, traffic a small fraction of the disk.
func TestRepairSupervisorDeltaResync(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			const blocks = 400
			h := newHarness(t, e, blocks, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Second, // blip well inside the budget
			})
			sh := raidtest.Fill(t, h.arr)
			ctx := context.Background()
			h.sup.Start(ctx)
			defer h.sup.Stop()

			const victim = 1
			h.raw[victim].Fail()
			h.waitState(t, victim, repair.StateSuspect)
			// Degraded writes while the member is away leave intents behind.
			rng := rand.New(rand.NewSource(43))
			for i := 0; i < 8; i++ {
				if err := sh.Write(ctx, rng.Int63n(h.arr.Blocks()), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if h.il.MissedBlocks(victim) == 0 {
				t.Fatal("degraded writes left no intents against the absent member")
			}
			h.raw[victim].Readmit() // back with stale contents
			raidtest.Eventually(t, "delta resync", func() bool {
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
			if h.sup.Status().Spares != 1 {
				t.Fatal("resync consumed a spare")
			}
			h.checkHealed(t, sh, "delta resync")
		})
	}
}

// polled counts the health polls a member answers: with no job running and
// no I/O, one per supervisor tick.
type polled struct {
	raid.Dev
	n atomic.Int64
}

func (d *polled) Healthy() bool { d.n.Add(1); return d.Dev.Healthy() }

// TestRepairPauseResumeMidRebuild: pausing cancels the running rebuild
// at its next pace point with the checkpoint at that chunk boundary,
// which is exactly what the spare has taken; no tick restarts it while
// paused; resuming finishes the job from there instead of restarting it,
// so no chunk is copied twice.
func TestRepairPauseResumeMidRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			// 768 blocks: RAID-x's mirror groups of three tile the member
			// with no hole, so every extent block is written once.
			const victim, chunk, pauseAt = 0, 128, 2
			var h *harness
			paces := 0
			polls := &polled{}
			g := raidtest.Disks{BS: bs, Blocks: 768, Wrap: func(i int, d raid.Dev) raid.Dev {
				if i != victim+1 {
					return d
				}
				polls.Dev = d
				return polls
			}}
			h = newHarnessOn(t, e, g, 2, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 5 * time.Millisecond,
				// Pause after chunk pauseAt: the next chunk completes, and
				// the job ends at the pace point after it.
				Pace: func(context.Context, int) error {
					if paces++; paces == pauseAt {
						h.sup.Pause()
					}
					return nil
				},
			})
			sh := raidtest.Fill(t, h.arr)
			spare := h.spares[1] // the supervisor installs its last spare first
			h.sup.Start(context.Background())
			defer h.sup.Stop()

			h.raw[victim].Fail()
			raidtest.Eventually(t, "the paused rebuild to exit", func() bool {
				st := h.sup.Status()
				return st.Paused && st.Active == -1
			})
			st := h.sup.Status()
			if st.Devices[victim].State != repair.StateRebuilding {
				t.Fatalf("paused mid-rebuild state = %q, want rebuilding", st.Devices[victim].State)
			}
			_, _, _, taken := spare.Stats()
			if done := st.Devices[victim].Prog.Done; done != (pauseAt+1)*chunk || taken != done*bs {
				t.Fatalf("paused at %d blocks with %d bytes on the spare, want %d blocks, all on the spare", done, taken, (pauseAt+1)*chunk)
			}
			// Three more ticks while paused: none may run the job again.
			from := polls.n.Load()
			raidtest.Eventually(t, "three ticks while paused", func() bool { return polls.n.Load() >= from+3 })
			if _, _, _, now := spare.Stats(); now != taken || h.sup.Status().Devices[victim].Prog.Done != (pauseAt+1)*chunk {
				t.Fatalf("the rebuild moved while paused: the spare took %d bytes, then %d", taken, now)
			}
			h.sup.Resume()
			waitRebuilt(t, h.sup, victim, "resumed rebuild")
			ext, _ := h.arr.Extents()
			var want int64
			for _, x := range ext {
				want += (x[1] - x[0]) * bs
			}
			if _, _, _, taken := spare.Stats(); taken != want {
				t.Fatalf("the spare took %d bytes over the paused and resumed rebuild, want the member's %d", taken, want)
			}
			h.checkHealed(t, sh, "pause/resume rebuild")
		})
	}
}

// TestRepairScrubEscalatesToRebuild: corruption the intent log never
// saw (a lost write) is caught by the post-resync sampled scrub, which
// escalates the member to a full rebuild-in-place — no spare consumed.
func TestRepairScrubEscalatesToRebuild(t *testing.T) {
	for _, e := range drillEngines() {
		t.Run(e.Name, func(t *testing.T) {
			h := newHarness(t, e, 400, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 10 * time.Second,
				ScrubStride:   1, // exhaustive scrub so the corruption is always sampled
			})
			sh := raidtest.Fill(t, h.arr)
			ctx := context.Background()

			const victim = 3
			h.raw[victim].Fail()
			// A degraded write over the first blocks of every member, so
			// readmission takes the resync path at all.
			if err := sh.Write(ctx, 0, int64(2*e.N)); err != nil {
				t.Fatal(err)
			}
			if err := h.arr.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if h.il.MissedBlocks(victim) == 0 {
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
			waitRebuilt(t, h.sup, victim, "scrub escalation to full rebuild")
			if st := h.sup.Status(); st.Devices[victim].Resyncs != 0 {
				t.Fatalf("resyncs = %d, want 0 (the resync must not count as completed)", st.Devices[victim].Resyncs)
			}
			if h.sup.Status().Spares != 1 {
				t.Fatal("escalated rebuild-in-place consumed a spare")
			}
			h.checkHealed(t, sh, "escalated rebuild")
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
	for _, e := range []raidtest.Engine{raidtest.RS(6, 2), raidtest.RAID5(4), raidtest.Chained(4)} {
		t.Run(e.Name, func(t *testing.T) {
			const blocks, victim = 400, 1
			ctx := context.Background()
			var h *harness
			var sh *raidtest.Shadow
			var width, stripes int64 // logical blocks per stripe; stripes in the array
			write := func(lb, n int64) {
				if err := sh.Write(ctx, lb, n); err != nil {
					t.Errorf("write [%d,+%d) while the spare is blank: %v", lb, n, err)
				}
			}
			steps := 0
			// The hook runs on the supervisor's goroutine, inside the
			// rebuild's pace call; the test goroutine reads what it wrote
			// only after the supervisor reports the rebuild complete.
			hook := func(context.Context, int) error {
				steps++
				n := int64(e.N)
				for _, s0 := range []int64{0, min(int64(steps)*128, stripes-n), stripes - n} {
					for lb := s0 * width; lb < (s0+n)*width; lb++ {
						write(lb, 1)
					}
					write(s0*width, width)
					write(s0*width+1, 2*width+width/2)
					if err := sh.Diff(ctx, s0*width, n*width); err != nil {
						t.Errorf("step %d: stripes [%d,+%d) while the spare is blank: %v", steps, s0, n, err)
					}
				}
				if reads, _, _, _ := h.spares[0].Stats(); reads != 0 {
					t.Errorf("step %d: the blank spare has served %d reads", steps, reads)
				}
				return nil
			}
			h = newHarness(t, e, blocks, 1, repair.Config{
				Poll:          2 * time.Millisecond,
				FailureBudget: 5 * time.Millisecond,
				Pace:          hook,
			})
			sh = raidtest.Fill(t, h.arr)
			ext, _ := h.arr.Extents()
			stripes = ext[0][1] - ext[0][0]
			width = h.arr.Blocks() / stripes
			h.sup.Start(ctx)
			defer h.sup.Stop()
			h.raw[victim].Fail()
			waitRebuilt(t, h.sup, victim, "supervised rebuild under foreground writes")
			if steps < 3 {
				t.Fatalf("the rebuild paced %d times, want one pace point per chunk", steps)
			}
			h.checkHealed(t, sh, "writes while the spare was blank")
		})
	}
}

// TestRepairStatusJSON: the wire status decodes and carries the device
// states.
func TestRepairStatusJSON(t *testing.T) {
	h := newHarness(t, raidx, 400, 0, repair.Config{Poll: time.Hour})
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

// TestRepairAheadStormStartsNoResync: with write-ahead intents and the
// supervisor running, a storm that marks every region of a small healthy
// array ahead starts no resync, during the storm or after it: ahead marks
// ride snapshots, they route no job, and once the storm is over they age
// out of the log.
func TestRepairAheadStormStartsNoResync(t *testing.T) {
	const blocks = 64
	il, reg := intent.NewLog(4, blocks, 8), obs.NewRegistry()
	polls := &polled{}
	a, _ := raidtest.Build[raidtest.Array](t, raidx.With(core.Options{Intent: il, Obs: reg, IntentAhead: true}),
		raidtest.Disks{BS: bs, Blocks: blocks, Wrap: func(i int, d raid.Dev) raid.Dev {
			if i != 0 {
				return d
			}
			polls.Dev = d
			return polls
		}})
	sh := raidtest.Fill(t, a)
	sup := repair.New(a, nil, repair.Config{Poll: time.Millisecond, Obs: reg})
	ctx := context.Background()
	sup.Start(ctx)
	defer sup.Stop()
	for pass := 0; pass < 20; pass++ {
		for lb := int64(0); lb < a.Blocks(); lb++ {
			if err := sh.Write(ctx, lb, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	clean, _ := intent.NewLog(4, blocks, 8).MarshalBinary()
	raidtest.Eventually(t, "the storm's ahead marks to age out", func() bool {
		snap, _ := il.MarshalBinary()
		return bytes.Equal(snap, clean)
	})
	from := polls.n.Load()
	raidtest.Eventually(t, "ten ticks after the storm", func() bool { return polls.n.Load() >= from+10 })
	if n := countEvents(reg, obs.EventResyncStart); n != 0 {
		t.Fatalf("ahead marks started %d resyncs", n)
	}
	for i, d := range sup.Status().Devices {
		if d.State != repair.StateHealthy {
			t.Fatalf("member %d reads %q after an ahead storm", i, d.State)
		}
	}
	sh.Check(t, "after the storm")
}
