package main

// The real-process grow crash drill: a 4-node cluster of raidxnode
// binaries grows to 12 via the wire control plane, the coordinator is
// SIGKILLed mid-rebalance, and its restart must resume the migration
// from the persisted epoch checkpoint (delta only, never from zero),
// finish it, broadcast the new generation to every member, and leave
// all twelve superblocks recording the adopted epoch after an orderly
// shutdown.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/mount"
	"repro/internal/repair"
	"repro/internal/store"
)

const growBlocks = 2048 // per disk; 4 nodes => 4096 logical blocks

func TestGrowCrashSIGKILLResumeFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	bin := buildNode(t)

	// The coordinator needs a stable address across its restart, so its
	// port is reserved up front. The other eleven use ephemeral ports.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hostAddr := l.Addr().String()
	l.Close()

	const total = 12
	procs := make([]*nodeProc, total)
	for i := 1; i < total; i++ {
		procs[i] = startNode(t, bin, fmt.Sprintf("g%d", i), "127.0.0.1:0", t.TempDir(),
			"-blocks", fmt.Sprint(growBlocks))
	}
	baseAddrs := []string{hostAddr, procs[1].addr, procs[2].addr, procs[3].addr}
	hostDir := t.TempDir()
	hostArgs := func(cluster []string, rate int64) []string {
		return []string{
			"-blocks", fmt.Sprint(growBlocks),
			"-repair-cluster", strings.Join(cluster, ","),
			"-repair-spares", "0", "-repair-poll", "5ms",
			"-qos-bg-rate", fmt.Sprint(rate),
		}
	}
	// The copy rate is capped so the kill lands mid-flight, well past
	// the first durable cursor checkpoint (the cursor persists on every
	// committed copy window).
	procs[0] = startNode(t, bin, "g0", hostAddr, hostDir, hostArgs(baseAddrs, 1<<20)...)

	ctx := context.Background()
	clients := make([]*cdd.NodeClient, total)
	for i, p := range procs {
		c, err := cdd.Connect(p.addr)
		if err != nil {
			t.Fatalf("dial %s: %v", p.addr, err)
		}
		defer c.Close()
		clients[i] = c
	}

	// Golden prefill through a client-side mount of the 4-node array.
	base, err := mount.Connect(baseAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	var golden []byte
	err = base.Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		golden = make([]byte, arr.Blocks()*int64(nBS))
		rand.New(rand.NewSource(67)).Read(golden)
		if err := arr.WriteBlocks(ctx, 0, golden); err != nil {
			return err
		}
		return arr.Flush(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Start the grow over the wire and let it pass the first durable
	// checkpoint before the kill.
	joinAddrs := make([]string, 0, 8)
	for _, p := range procs[4:] {
		joinAddrs = append(joinAddrs, p.addr)
	}
	growDeadline := time.Now().Add(30 * time.Second)
	for {
		err := clients[0].RebalanceCtl(ctx, "grow", 8, joinAddrs)
		if err == nil || strings.Contains(err.Error(), "rebalance in progress") {
			// "in progress" means an earlier attempt started it and only
			// the response was lost.
			break
		}
		if time.Now().After(growDeadline) {
			t.Fatalf("grow never started: %v\nstderr:\n%s", err, procs[0].stderr)
		}
		time.Sleep(20 * time.Millisecond) // supervisor may still be attaching
	}
	waitLayout(t, clients[0], 60*time.Second, "mid-flight cursor past a checkpoint", func(li cdd.LayoutInfo) bool {
		return li.Migrating && li.Cursor >= 1536
	})
	procs[0].sigkill(t)

	// The durable record: an in-flight grow with a non-zero cursor.
	ck, err := repair.LoadRebalance(store.OS, hostDir+"/repair")
	if err != nil || ck == nil {
		t.Fatalf("epoch checkpoint after SIGKILL: %+v, %v", ck, err)
	}
	if ck.Done || ck.Action != "grow" || ck.Nodes != 8 || ck.Cursor < 1024 {
		t.Fatalf("checkpoint %+v, want an in-flight grow by 8 with cursor >= 1024", ck)
	}

	// Restart against the same images and address, now listing the full
	// target membership. The binary must reopen the array at the source
	// epoch over the widened table and resume from the recorded cursor —
	// a cursor observed below it would mean the migration restarted from
	// zero.
	allAddrs := append(append([]string{}, baseAddrs...), joinAddrs...)
	procs[0] = startNode(t, bin, "g0", hostAddr, hostDir, hostArgs(allAddrs, 1<<20)...)
	// Completion requires the stable descriptor, not just Gen == 1: the
	// members adopt the target generation at migration start and persist
	// it, so the restarted coordinator reports Gen 1 with no descriptor
	// during the window before the resume attaches.
	sawResume := false
	waitLayout(t, clients[0], 120*time.Second, "resumed grow to finish", func(li cdd.LayoutInfo) bool {
		if li.Migrating {
			if li.Cursor < ck.Cursor {
				t.Fatalf("resumed migration cursor %d below checkpoint %d: restarted from zero", li.Cursor, ck.Cursor)
			}
			sawResume = true
		}
		return !li.Migrating && li.Gen == 1 && li.Desc != nil
	})
	if !sawResume {
		t.Log("resumed migration finished between polls; cursor floor unobserved")
	}

	// Every member reports the adopted generation (adopted at migration
	// start; the completion broadcast repeats it).
	for i, c := range clients {
		waitLayout(t, c, 30*time.Second, fmt.Sprintf("node %d to adopt epoch 1", i), func(li cdd.LayoutInfo) bool {
			return li.Gen == 1
		})
	}

	// The mount made before the grow still places I/O with the base map:
	// its first operation bounces stale, and mount.Run recovers by
	// rebuilding at the grown epoch — twelve columns in epoch order, from
	// an address list that now names all twelve nodes.
	if err := base.Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		return arr.ReadBlocks(ctx, 0, make([]byte, nBS))
	}); !errors.Is(err, mount.ErrGeometry) {
		t.Fatalf("4-address mount of the 12-node epoch = %v, want the short-address-list refusal", err)
	}
	all, err := mount.Connect(allAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	err = all.Run(ctx, core.Options{}, func(grown *core.RAIDx) error {
		if ep := grown.Epoch(); ep.Gen() != 1 || ep.Nodes() != total {
			return fmt.Errorf("mounted at epoch %d spanning %d nodes, want epoch 1 over %d", ep.Gen(), ep.Nodes(), total)
		}
		got := make([]byte, len(golden))
		if err := grown.ReadBlocks(ctx, 0, got); err != nil {
			return fmt.Errorf("read after resumed grow: %w", err)
		}
		if !bytes.Equal(got, golden) {
			return errors.New("data wrong after SIGKILL + resumed grow")
		}
		return grown.Verify(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}

	// There is no fence to clear: after completion every member still
	// rejects a client that places I/O with the base map — a fresh
	// connection that never learned the epoch — and serves one at the
	// adopted generation.
	probe := make([]byte, nBS)
	for i, c := range clients {
		if err := c.Dev(0).ReadBlocks(ctx, 0, probe); !cdd.IsStaleEpoch(err) {
			t.Fatalf("node %d served a generation-0 read after the grow: %v", i, err)
		}
		if err := c.Dev(0).WriteBlocks(ctx, 0, probe); !cdd.IsStaleEpoch(err) {
			t.Fatalf("node %d served a generation-0 write after the grow: %v", i, err)
		}
		if err := all.Clients[i].Dev(0).ReadBlocks(ctx, 0, probe); err != nil {
			t.Fatalf("node %d rejected a generation-1 read: %v", i, err)
		}
	}

	// Orderly shutdown: every image inspects clean AND records the
	// adopted epoch, so a future restart re-enforces it on its own.
	for _, c := range clients {
		c.Close()
	}
	for _, p := range procs {
		p.sigterm(t)
	}
	for i, p := range procs {
		sb, _, err := store.InspectSuperblock(store.OS, p.image())
		if err != nil {
			t.Fatalf("%s: %v", p.image(), err)
		}
		if !sb.Clean {
			t.Fatalf("node %d image not clean after SIGTERM; stderr:\n%s", i, p.stderr)
		}
		if sb.ArrayEpoch != 1 {
			t.Fatalf("node %d image records epoch %d, want 1; stderr:\n%s", i, sb.ArrayEpoch, p.stderr)
		}
	}
}

// waitLayout polls a node's layout view until cond holds.
func waitLayout(t *testing.T, c *cdd.NodeClient, within time.Duration, what string, cond func(cdd.LayoutInfo) bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		li, err := c.Layout(ctx)
		cancel()
		if err == nil && cond(li) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (last: %+v, err %v)", what, li, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
