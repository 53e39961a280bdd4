package cdd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/transport"
)

// TestEpochTaggedIO: tagged I/O at the node's generation round-trips;
// a stale tag bounces with the typed wire code; recovery is a mount-
// layer rebuild (re-tag at the learned generation), never a transport
// retry of the same physical placement.
func TestEpochTaggedIO(t *testing.T) {
	n := startNode(t, 1, 32)
	n.Manager.AdoptEpoch(3)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	dev := c.Dev(0)
	data := make([]byte, 2*512)
	rand.New(rand.NewSource(7)).Read(data)

	// Generation in date: served.
	c.SetArrayEpoch(3)
	if err := dev.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatalf("write at current epoch: %v", err)
	}
	got := make([]byte, len(data))
	if err := dev.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("read at current epoch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tagged round trip corrupted data")
	}

	// Stale tag: the typed error surfaces to the caller — the transport
	// must NOT re-tag and resend, because the request's physical
	// placement came from the retired map.
	n.Manager.AdoptEpoch(5)
	c2, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetArrayEpoch(3)
	dev2 := c2.Dev(0)
	err = dev2.WriteBlocks(ctx, 0, data)
	if !IsStaleEpoch(err) {
		t.Fatalf("stale write error = %v, want stale-epoch", err)
	}
	var re *transport.RemoteError
	if !errors.As(err, &re) || re.Code != transport.CodeStaleEpoch {
		t.Fatalf("stale write error not CodeStaleEpoch: %v", err)
	}
	// A wire rejection proves the node answered: the device must not be
	// marked suspect for it.
	if !dev2.Healthy() {
		t.Fatal("stale-epoch rejection marked device unhealthy")
	}

	// The mount layer recovers by refetching the layout and rebuilding
	// its placement map; with the client re-tagged at the learned
	// generation, re-issued I/O lands.
	li, err := c2.Layout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetArrayEpoch(li.Gen)
	if got := c2.ArrayEpoch(); got != 5 {
		t.Fatalf("client epoch after rebuild = %d, want 5", got)
	}
	if err := dev2.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatalf("write after rebuild: %v", err)
	}
	if err := dev2.ReadBlocks(ctx, 0, got[:512]); err != nil {
		t.Fatalf("read after rebuild: %v", err)
	}

	// A tag AHEAD of the node: adopted, so the fence tightens before the
	// coordinator's broadcast arrives.
	c2.SetArrayEpoch(8)
	if err := dev2.WriteBlocks(ctx, 0, data); err != nil {
		t.Fatalf("write ahead of node epoch: %v", err)
	}
	if got := n.Manager.EpochGen(); got != 8 {
		t.Fatalf("node epoch after ahead tag = %d, want 8", got)
	}
}

// TestEpochSetBroadcast: OpEpochSet raises monotonically and answers
// the generation in force.
func TestEpochSetBroadcast(t *testing.T) {
	n := startNode(t, 1, 16)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if got, err := c.EpochSet(ctx, 4); err != nil || got != 4 {
		t.Fatalf("EpochSet(4) = %d, %v", got, err)
	}
	// Out-of-order lower broadcast: ignored, current generation answered.
	if got, err := c.EpochSet(ctx, 2); err != nil || got != 4 {
		t.Fatalf("EpochSet(2) = %d, %v, want 4", got, err)
	}
	li, err := c.Layout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if li.Gen != 4 || li.Desc != nil || li.Migrating {
		t.Fatalf("layout = %+v, want bare gen 4", li)
	}
	if g := n.Manager.Obs().Snapshot().Gauges["epoch.gen"]; g != 4 {
		t.Fatalf("epoch.gen gauge = %d, want 4", g)
	}
	// The payload is exactly one generation: there is no phase byte.
	for _, n := range []int{0, 7, 9} {
		_, err := c.call(ctx, OpEpochSet, make([]byte, n))
		var re *transport.RemoteError
		if !errors.As(err, &re) || re.Code != transport.CodeBadRequest {
			t.Fatalf("EpochSet with a %d-byte payload = %v, want bad-request", n, err)
		}
	}
}

// TestEpochFenceDuringMigration: the fence is one invariant with nothing
// to raise or clear. Before the coordinator's start-of-migration
// broadcast a writer at the source generation is served; once the node
// adopts the target generation, generation-0 and source-generation
// block I/O bounce typed, the coordinator's own I/O (stamped with the
// target) passes, Flush stays open, and a dropped background mirror
// write is counted. The completion broadcast of the same generation
// changes nothing: older maps stay locked out for good.
func TestEpochFenceDuringMigration(t *testing.T) {
	n := startNode(t, 1, 32)
	n.Manager.AdoptEpoch(1)
	ctx := context.Background()
	data := make([]byte, 512)
	rand.New(rand.NewSource(11)).Read(data)
	got := make([]byte, 512)
	connectAt := func(gen uint64) *NodeClient {
		c, err := Connect(n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetArrayEpoch(gen)
		return c
	}
	cZero, cSource, cCoord := connectAt(0), connectAt(1), connectAt(2)

	// Stable cluster at generation 1: the source-generation writer is
	// served; a generation-0 client is locked out with no migration in
	// flight — the hole "tag 0 = legacy, never rejected" used to leave.
	if err := cSource.Dev(0).WriteBlocks(ctx, 0, data); err != nil {
		t.Fatalf("source-generation write on a stable node: %v", err)
	}
	if err := cZero.Dev(0).WriteBlocks(ctx, 0, data); !IsStaleEpoch(err) {
		t.Fatalf("generation-0 write to a generation-1 node = %v, want stale-epoch", err)
	}
	if err := cZero.Dev(0).ReadBlocks(ctx, 0, got); !IsStaleEpoch(err) {
		t.Fatalf("generation-0 read from a generation-1 node = %v, want stale-epoch", err)
	}

	// Migration start: the coordinator broadcasts the target generation.
	if gen, err := cCoord.EpochSet(ctx, 2); err != nil || gen != 2 {
		t.Fatalf("EpochSet(2) = %d, %v", gen, err)
	}
	for name, c := range map[string]*NodeClient{"generation-0": cZero, "source-generation": cSource} {
		dev := c.Dev(0)
		if err := dev.WriteBlocks(ctx, 0, data); !IsStaleEpoch(err) {
			t.Fatalf("%s write during migration = %v, want stale-epoch", name, err)
		}
		if err := dev.ReadBlocks(ctx, 0, got); !IsStaleEpoch(err) {
			t.Fatalf("%s read during migration = %v, want stale-epoch", name, err)
		}
		// Flush and control ops stay open; a rejection is an answer, not
		// a fault, so the device stays healthy.
		if err := dev.Flush(ctx); err != nil {
			t.Fatalf("%s flush during migration: %v", name, err)
		}
		if !dev.Healthy() {
			t.Fatalf("%s: stale-epoch rejection marked device unhealthy", name)
		}
		// A stale background mirror write is a notification: the client
		// sees no error, so the node must count the drop. A call on the
		// same connection orders behind the notification.
		before := n.Manager.met.bgStaleDrops.Value()
		if err := dev.WriteBlocksBackground(ctx, 4, data); err != nil {
			t.Fatalf("%s background write returned an error to the notifier: %v", name, err)
		}
		if err := dev.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if v := n.Manager.met.bgStaleDrops.Value(); v != before+1 {
			t.Fatalf("bg_stale_drops = %d after a dropped %s background write, want %d", v, name, before+1)
		}
	}

	// The coordinator's own I/O — stamped with the target generation —
	// is the one writer that passes.
	if err := cCoord.Dev(0).WriteBlocks(ctx, 0, data); err != nil {
		t.Fatalf("target-generation write during migration: %v", err)
	}

	// Completion re-broadcasts the same generation: idempotent, and the
	// older maps stay rejected.
	if gen, err := cCoord.EpochSet(ctx, 2); err != nil || gen != 2 {
		t.Fatalf("completion EpochSet(2) = %d, %v", gen, err)
	}
	if err := cZero.Dev(0).WriteBlocks(ctx, 0, data); !IsStaleEpoch(err) {
		t.Fatalf("generation-0 write after completion = %v, want stale-epoch", err)
	}
	if err := cCoord.Dev(0).ReadBlocks(ctx, 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("target-generation read after completion: %v", err)
	}
}

// fakeCoordinator implements RebalanceController for wire tests. Its
// fields are written from the server goroutine and read by the test,
// so every access locks.
type fakeCoordinator struct {
	mu    sync.Mutex
	gen   uint64
	calls []string
	err   error
}

func (f *fakeCoordinator) LayoutJSON() ([]byte, error) {
	f.mu.Lock()
	gen := f.gen
	f.mu.Unlock()
	desc := layout.NewEpoch(layout.NewOSM(4, 1, 64)).Desc()
	return json.Marshal(LayoutInfo{Gen: gen, Desc: &desc})
}

func (f *fakeCoordinator) Rebalance(action string, nodes int, addrs []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("%s/%d/%d", action, nodes, len(addrs)))
	return f.err
}

func (f *fakeCoordinator) snapshotCalls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func (f *fakeCoordinator) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

// TestRebalanceCtl: the control op reaches the coordinator; its typed
// refusals travel back as remote errors; nodes without a coordinator
// refuse.
func TestRebalanceCtl(t *testing.T) {
	n := startNode(t, 1, 16)
	c, err := Connect(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.RebalanceCtl(ctx, "grow", 2, []string{"a", "b"}); err == nil {
		t.Fatal("rebalance against a node without a coordinator succeeded")
	}
	fc := &fakeCoordinator{gen: 7}
	n.Manager.SetRebalance(fc)
	if err := c.RebalanceCtl(ctx, "grow", 2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if calls := fc.snapshotCalls(); len(calls) != 1 || calls[0] != "grow/2/2" {
		t.Fatalf("coordinator calls = %v", calls)
	}
	fc.setErr(errors.New("repair: rebalance in progress"))
	err = c.RebalanceCtl(ctx, "shrink", 1, nil)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("refusal did not travel as a remote error: %v", err)
	}
	li, err := c.Layout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if li.Gen != 7 || li.Desc == nil {
		t.Fatalf("coordinator layout = %+v, want gen 7 with desc", li)
	}
	if _, err := layout.EpochFromDesc(*li.Desc); err != nil {
		t.Fatalf("served desc does not rebuild: %v", err)
	}
}
