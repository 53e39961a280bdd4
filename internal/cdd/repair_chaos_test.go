package cdd_test

// Self-healing integration tests over real TCP: the repair supervisor
// driving spare swaps, background rebuilds, and delta resyncs against
// killed servers and network partitions, while foreground I/O keeps
// running. Test names match the CI repair shard (TestRepair|TestResync).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faultnet"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/repair"
	"repro/internal/store"
)

// healArray is what the self-healing drills need of an engine.
type healArray interface {
	raid.Array
	raid.Restorer // = repair.Array
	raid.Verifier
}

// healEngines are the policies the TCP drills run over: the OSM mirror
// on four nodes and an rs(4,2) stripe on six, each handed the cluster's
// registry and its own intent log.
var healEngines = []struct {
	name  string
	nodes int
	build func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (healArray, error)
}{
	{"raidx", 4, func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (healArray, error) {
		return core.New(devs, 4, 1, core.Options{Obs: reg, Intent: il, ForegroundMirror: true})
	}},
	{"rs(4,2)", 6, func(devs []raid.Dev, il *intent.Log, reg *obs.Registry) (healArray, error) {
		a, err := raid.NewRS(devs, 2)
		if err != nil {
			return nil, err
		}
		a.Members().Attach(il, reg, nil)
		return a, nil
	}},
}

// waitDev polls the supervisor until cond holds for member idx.
func waitDev(t *testing.T, sup *repair.Supervisor, idx int, within time.Duration, cond func(repair.DevStatus) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := sup.Status().Devices[idx]
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("device %d never reached %q (state %s, rebuilds %d, resyncs %d, lastErr %q)",
				idx, what, st.State, st.Rebuilds, st.Resyncs, st.LastErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRepairChaosNodeKillAutoSpareRebuild is the headline self-healing
// drill: a CDD server is killed outright mid-workload, the supervisor
// notices, swaps in a hot spare, and rebuilds it in the background —
// while a foreground reader hammers the array and must see ZERO I/O
// errors and zero wrong bytes throughout (mirror failover while the
// node is dead, blank-column routing while the spare rebuilds).
func TestRepairChaosNodeKillAutoSpareRebuild(t *testing.T) {
	for _, e := range healEngines {
		t.Run(e.name, func(t *testing.T) { nodeKillAutoSpareRebuild(t, e.nodes, e.build) })
	}
}

func nodeKillAutoSpareRebuild(t *testing.T, n int, build func([]raid.Dev, *intent.Log, *obs.Registry) (healArray, error)) {
	const blocks = 128
	devs, _, nodes, reg := faultCluster(t, n, 1, blocks, nil)
	il := intent.NewLog(n, blocks, 8)
	a, err := build(devs, il, reg)
	if err != nil {
		t.Fatal(err)
	}
	spare := disk.New(nil, "spare0", store.NewMem(1024, blocks), disk.DefaultModel())
	sup := repair.New(a, []raid.Dev{spare}, repair.Config{
		Poll:          5 * time.Millisecond,
		FailureBudget: 50 * time.Millisecond,
		ScrubStride:   -1,
		Obs:           reg,
	})

	ctx := context.Background()
	bs := a.BlockSize()
	golden := make([]byte, int(a.Blocks())*bs)
	rand.New(rand.NewSource(51)).Read(golden)
	if err := a.WriteBlocks(ctx, 0, golden); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	sup.Start(ctx)
	defer sup.Stop()

	// Foreground readers over the stable region: every read must
	// succeed and return golden bytes, through the kill, the swap, and
	// the whole background rebuild.
	stable := a.Blocks() - 48 // the tail is the writer's private region
	var readErrs atomic.Int64
	var reads atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(60 + r)))
			buf := make([]byte, 8*bs)
			for {
				select {
				case <-done:
					return
				default:
				}
				off := int64(rng.Intn(int(stable) - 8))
				if err := a.ReadBlocks(ctx, off, buf); err != nil {
					t.Errorf("foreground read at %d: %v", off, err)
					readErrs.Add(1)
					return
				}
				if !bytes.Equal(buf, golden[off*int64(bs):(off+8)*int64(bs)]) {
					t.Errorf("foreground read at %d returned wrong data", off)
					readErrs.Add(1)
					return
				}
				reads.Add(1)
			}
		}()
	}

	// Kill node 2: no courtesy fail call, the server and all its
	// connections just die.
	nodes[2].Close()

	// Degraded writes must also keep succeeding once the dead node is
	// suspected (retried through the detection window).
	wbase, wlen := stable+8, int64(16)
	wdata := make([]byte, int(wlen)*bs)
	rand.New(rand.NewSource(52)).Read(wdata)
	wdeadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.WriteBlocks(ctx, wbase, wdata); err == nil {
			break
		}
		if time.Now().After(wdeadline) {
			t.Fatal("degraded write never succeeded after node kill")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The supervisor must take device 2 through degraded → spare swap →
	// rebuilding → healthy without operator input.
	waitDev(t, sup, 2, 60*time.Second, func(st repair.DevStatus) bool {
		return st.Rebuilds >= 1 && st.State == repair.StateHealthy
	}, "auto rebuild complete")

	close(done)
	wg.Wait()
	if readErrs.Load() != 0 {
		t.Fatalf("%d foreground read errors during self-healing, want 0", readErrs.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("reader made no progress")
	}
	if n := sup.Status().Spares; n != 0 {
		t.Fatalf("%d spares left, want 0 (the supervisor must have consumed one)", n)
	}
	if a.Members().Load().Devs[2] != raid.Dev(spare) {
		t.Fatal("device 2's slot does not hold the spare")
	}

	// Writes that raced the rebuild may have been clobbered by an
	// in-flight chunk copy (copy read the peer before the write landed):
	// rewrite the writer region once on the healed array, then audit. The
	// region is whole stripes of the rs array, so the rewrite re-encodes
	// its parity from scratch.
	if err := a.WriteBlocks(ctx, wbase, wdata); err != nil {
		t.Fatalf("post-heal rewrite: %v", err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	copy(golden[wbase*int64(bs):], wdata)
	got := make([]byte, len(golden))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("data wrong after self-healing cycle")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after self-healing cycle: %v", err)
	}
	if countEvents(reg, obs.EventRepairState, "repair/d2") == 0 {
		t.Error("no repair state transitions logged for the healed device")
	}
	if countEvents(reg, obs.EventRebuildStart, a.Name()+"/d2") == 0 {
		t.Error("no rebuild-start event for the healed device")
	}
}

// TestResyncChaosPartitionDeltaOnly partitions one node, runs degraded
// writes against the array (logged as write intents), heals the
// partition, and asserts the supervisor repairs the readmitted node by
// replaying ONLY the dirty regions: the resync byte count must be a
// small fraction of the device, and a post-resync Verify must pass.
func TestResyncChaosPartitionDeltaOnly(t *testing.T) {
	for _, e := range healEngines {
		t.Run(e.name, func(t *testing.T) { partitionDeltaOnly(t, e.nodes, e.build) })
	}
}

func partitionDeltaOnly(t *testing.T, n int, build func([]raid.Dev, *intent.Log, *obs.Registry) (healArray, error)) {
	const blocks = 256
	fnet := faultnet.New(7)
	devs, clients, _, reg := faultCluster(t, n, 1, blocks, fnet)
	il := intent.NewLog(n, blocks, 8)
	a, err := build(devs, il, reg)
	if err != nil {
		t.Fatal(err)
	}
	// No spare pool: the only way this array heals is the delta path.
	sup := repair.New(a, nil, repair.Config{
		Poll:          5 * time.Millisecond,
		FailureBudget: 10 * time.Minute, // never give up on readmission
		ScrubStride:   4,
		Obs:           reg,
	})

	ctx := context.Background()
	bs := a.BlockSize()
	golden := make([]byte, int(a.Blocks())*bs)
	rand.New(rand.NewSource(71)).Read(golden)
	if err := a.WriteBlocks(ctx, 0, golden); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	sup.Start(ctx)
	defer sup.Stop()

	victim := clients[1].Addr()
	fnet.Partition(victim)

	// Degraded writes over a small window; retried until the dead node
	// is suspected and the engine routes around it, logging intents for
	// every copy node 1 missed.
	const wbase, wlen = 40, int64(16)
	wdata := make([]byte, int(wlen)*bs)
	rand.New(rand.NewSource(72)).Read(wdata)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.WriteBlocks(ctx, wbase, wdata); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("degraded write never succeeded during partition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	copy(golden[wbase*int64(bs):], wdata)
	if il.MissedBlocks(1) == 0 {
		t.Fatal("degraded writes logged no intents against the partitioned member")
	}

	// Heal: the node returns with STALE data. The supervisor must
	// resync the delta, scrub, and declare it healthy — no full rebuild.
	fnet.Heal(victim)
	waitDev(t, sup, 1, 60*time.Second, func(st repair.DevStatus) bool {
		return st.Resyncs >= 1 && st.State == repair.StateHealthy
	}, "delta resync complete")

	st := sup.Status().Devices[1]
	if st.Rebuilds != 0 {
		t.Fatalf("device was fully rebuilt (%d times); a clean delta resync must suffice", st.Rebuilds)
	}
	deviceBytes := int64(blocks) * int64(bs)
	if st.ResyncBytes <= 0 {
		t.Fatal("resync moved no bytes")
	}
	if st.ResyncBytes >= deviceBytes/4 {
		t.Fatalf("resync moved %d bytes; want a small delta (device is %d bytes)", st.ResyncBytes, deviceBytes)
	}
	if il.MissedBlocks(1) != 0 {
		t.Fatalf("%d missed blocks left after resync", il.MissedBlocks(1))
	}

	got := make([]byte, len(golden))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("data wrong after delta resync")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after delta resync: %v", err)
	}
	if countEvents(reg, obs.EventResyncStart, a.Name()+"/d1") == 0 {
		t.Error("no resync-start event for the readmitted device")
	}
}

// TestRepairRPCStatusAndIntentReplication exercises the new wire
// surface directly: intent snapshots replicate through a manager and
// read back bit-identical, and the repair supervisor is queryable and
// controllable over the protocol.
func TestRepairRPCStatusAndIntentReplication(t *testing.T) {
	_, clients, nodes, _ := faultCluster(t, 1, 1, 64, nil)
	c := clients[0]
	ctx := context.Background()

	// Intent snapshot round trip.
	il := intent.NewLog(4, 256, 8)
	il.MarkRange(2, 17, 40)
	il.MarkRange(0, 200, 3)
	snap, err := il.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutIntent(ctx, "arr0", snap); err != nil {
		t.Fatalf("put intent: %v", err)
	}
	back, err := c.GetIntent(ctx, "arr0")
	if err != nil {
		t.Fatalf("get intent: %v", err)
	}
	if !bytes.Equal(back, snap) {
		t.Fatal("intent snapshot corrupted in flight")
	}
	if none, err := c.GetIntent(ctx, "no-such-array"); err != nil || none != nil {
		t.Fatalf("unknown key returned (%v, %v), want (nil, nil)", none, err)
	}

	// Repair control plane: absent supervisor is a remote error, an
	// attached one answers status and obeys pause/resume.
	if _, err := c.RepairStatus(ctx); err == nil {
		t.Fatal("repair status with no supervisor attached must fail")
	}
	ldevs, _ := localArrayDevs(t, 4, 64)
	arr, err := core.New(ldevs, 4, 1, core.Options{Intent: intent.NewLog(4, 64, 8)})
	if err != nil {
		t.Fatal(err)
	}
	sup := repair.New(arr, nil, repair.Config{})
	nodes[0].Manager.SetRepair(sup)

	raw, err := c.RepairStatus(ctx)
	if err != nil {
		t.Fatalf("repair status: %v", err)
	}
	var status repair.Status
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatalf("undecodable repair status %q: %v", raw, err)
	}
	if len(status.Devices) != 4 || status.Paused {
		t.Fatalf("bad status: %+v", status)
	}
	if err := c.RepairPause(ctx); err != nil {
		t.Fatal(err)
	}
	if !sup.Paused() {
		t.Fatal("pause RPC did not pause the supervisor")
	}
	if err := c.RepairResume(ctx); err != nil {
		t.Fatal(err)
	}
	if sup.Paused() {
		t.Fatal("resume RPC did not resume the supervisor")
	}
}

// localArrayDevs builds an all-local device set for tests that need an
// array but no network.
func localArrayDevs(t *testing.T, n int, blocks int64) ([]raid.Dev, []*disk.Disk) {
	t.Helper()
	devs := make([]raid.Dev, n)
	raw := make([]*disk.Disk, n)
	for i := range devs {
		raw[i] = disk.New(nil, fmt.Sprintf("l%d", i), store.NewMem(1024, blocks), disk.DefaultModel())
		devs[i] = raw[i]
	}
	return devs, raw
}
