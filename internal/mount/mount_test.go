package mount

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/store"
)

const (
	testBS     = 512
	testBlocks = 64
)

// testNode is one in-process CDD node over TCP plus the disks behind it,
// so a test can check which physical disk a table column reaches.
type testNode struct {
	*cdd.Node
	disks []*disk.Disk
}

func startNodes(t *testing.T, n, perNode int) ([]*testNode, []string) {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		disks := make([]*disk.Disk, perNode)
		for l := range disks {
			disks[l] = disk.New(nil, fmt.Sprintf("n%d-d%d", i, l), store.NewMem(testBS, testBlocks), disk.DefaultModel())
		}
		srv, err := cdd.ListenAndServe("127.0.0.1:0", disks)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		nodes[i] = &testNode{Node: srv, disks: disks}
		addrs[i] = srv.Addr()
	}
	return nodes, addrs
}

func connect(t *testing.T, addrs []string) *Cluster {
	t.Helper()
	cl, err := Connect(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// deadAddr is a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// coordinator is a test rebalance coordinator: it serves whatever layout
// view the test installs, the way raidxnode's serves its engine's.
type coordinator struct {
	mu sync.Mutex
	li cdd.LayoutInfo
}

func (c *coordinator) set(ep *layout.Epoch, migrating bool, cursor int64) {
	desc := ep.Desc()
	c.mu.Lock()
	c.li = cdd.LayoutInfo{Gen: ep.Gen(), Desc: &desc, Migrating: migrating, Cursor: cursor}
	if migrating {
		c.li.TargetGen = ep.Gen() + 1
	}
	c.mu.Unlock()
}

func (c *coordinator) LayoutJSON() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(c.li)
}

func (c *coordinator) Rebalance(string, int, []string) error {
	return errors.New("not a real coordinator")
}

// grownCluster is 3 base nodes x 2 disks grown by one node to generation
// 1: every node has adopted it and node 0 serves the descriptor.
func grownCluster(t *testing.T) ([]*testNode, []string, *coordinator, *layout.Epoch) {
	t.Helper()
	nodes, addrs := startNodes(t, 4, 2)
	ep, err := layout.NewEpoch(layout.NewOSM(3, 2, testBlocks)).Grow(1)
	if err != nil {
		t.Fatal(err)
	}
	co := &coordinator{}
	co.set(ep, false, 0)
	nodes[0].Manager.SetRebalance(co)
	for _, n := range nodes {
		n.Manager.AdoptEpoch(1)
	}
	return nodes, addrs, co, ep
}

type nodeDisk struct{ node, local int }

// checkTable writes a marker through every column of the engine's device
// table and finds it on the physical disk the column must address.
func checkTable(t *testing.T, arr *core.RAIDx, nodes []*testNode, want []nodeDisk) {
	t.Helper()
	devs := arr.Devices()
	if len(devs) != len(want) {
		t.Fatalf("device table has %d columns, want %d", len(devs), len(want))
	}
	ctx := context.Background()
	for d, dev := range devs {
		marker := bytes.Repeat([]byte{byte(0xA0 + d)}, testBS)
		if err := dev.WriteBlocks(ctx, 7, marker); err != nil {
			t.Fatalf("column %d: %v", d, err)
		}
		got := make([]byte, testBS)
		if err := nodes[want[d].node].disks[want[d].local].ReadBlocks(ctx, 7, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marker) {
			t.Errorf("column %d does not address local disk %d of node %d", d, want[d].local, want[d].node)
		}
	}
}

// TestMountTables pins the device tables to what raidxfs, raidxctl and
// raidxnode each hand-built before this package existed: at generation
// zero the SIOS interleave (column node + local*nodes), after a grow the
// base interleave at the BASE node count with the joined columns
// appended.
func TestMountTables(t *testing.T) {
	ctx := context.Background()
	t.Run("gen0", func(t *testing.T) {
		nodes, addrs := startNodes(t, 3, 2)
		arr, err := connect(t, addrs).Engine(ctx, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if arr.Epoch().Gen() != 0 {
			t.Fatalf("mounted at generation %d, want 0", arr.Epoch().Gen())
		}
		checkTable(t, arr, nodes, []nodeDisk{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}})
	})
	t.Run("gen1", func(t *testing.T) {
		nodes, addrs, _, _ := grownCluster(t)
		arr, err := connect(t, addrs).Engine(ctx, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if arr.Epoch().Gen() != 1 {
			t.Fatalf("mounted at generation %d, want 1", arr.Epoch().Gen())
		}
		checkTable(t, arr, nodes, []nodeDisk{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 0}, {3, 1}})
	})
	// The coordinator's resume path: engine at the checkpointed source
	// epoch, table already spanning the target of the interrupted grow.
	t.Run("interrupted-grow", func(t *testing.T) {
		nodes, addrs := startNodes(t, 4, 2)
		src := layout.NewEpoch(layout.NewOSM(3, 2, testBlocks))
		arr, err := connect(t, addrs).EngineAt(src.Desc(), 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if arr.Epoch().Gen() != 0 || arr.Epoch().Nodes() != 3 {
			t.Fatalf("engine at generation %d over %d nodes, want the 3-node source epoch", arr.Epoch().Gen(), arr.Epoch().Nodes())
		}
		checkTable(t, arr, nodes, []nodeDisk{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 0}, {3, 1}})
	})
}

// TestMountDegraded: a node that is down at connect time becomes offline
// placeholders in its columns; the mount is flagged degraded and reads of
// its blocks are served from the mirror images.
func TestMountDegraded(t *testing.T) {
	ctx := context.Background()
	_, addrs := startNodes(t, 4, 1)
	var data []byte
	err := connect(t, addrs).Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		data = bytes.Repeat([]byte("raidx"), int(arr.Blocks())*testBS/5+1)[:int(arr.Blocks())*testBS]
		if err := arr.WriteBlocks(ctx, 0, data); err != nil {
			return err
		}
		return arr.Flush(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}

	addrs[2] = deadAddr(t)
	cl := connect(t, addrs)
	if cl.Clients[2] != nil || cl.Errs[2] == nil {
		t.Fatalf("down node: client %v, err %v", cl.Clients[2], cl.Errs[2])
	}
	reg := obs.NewRegistry()
	arr, err := cl.Engine(ctx, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := arr.Devices()[2].(*cdd.OfflineDev); !ok {
		t.Fatalf("column 2 is %T, want an offline placeholder", arr.Devices()[2])
	}
	got := make([]byte, len(data))
	if err := arr.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong data")
	}
	flagged := false
	for _, ev := range reg.Snapshot().Events {
		flagged = flagged || ev.Kind == obs.EventDegradedMount
	}
	if !flagged {
		t.Fatal("degraded mount not flagged on the event log")
	}

	if _, err := Connect([]string{deadAddr(t), deadAddr(t)}); err == nil {
		t.Fatal("connect with no reachable node succeeded")
	}
}

// TestMountRefusals: the mounts that would place I/O wrongly are refused
// typed where the engine is built — and only there: Probe still returns
// the view, so status displays render in every one of these states.
func TestMountRefusals(t *testing.T) {
	ctx := context.Background()
	t.Run("mid-migration", func(t *testing.T) {
		_, addrs, co, ep := grownCluster(t)
		co.set(ep, true, 1234)
		cl := connect(t, addrs)
		_, err := cl.Engine(ctx, core.Options{})
		if !errors.Is(err, ErrMigrating) || !strings.Contains(err.Error(), "cursor 1234") {
			t.Fatalf("mid-migration mount = %v, want ErrMigrating naming cursor 1234", err)
		}
		v, err := cl.Probe(ctx)
		if err != nil || !v.Migrating || v.Cursor != 1234 || v.TargetGen != 2 || v.Epoch == nil {
			t.Fatalf("probe mid-migration = %+v, %v", v, err)
		}
	})
	// Coordinator down after a rebalance: stamping base-map placements
	// with the current generation would make the nodes accept writes to
	// wrong homes.
	t.Run("no-descriptor", func(t *testing.T) {
		nodes, addrs := startNodes(t, 4, 1)
		nodes[1].Manager.AdoptEpoch(2)
		cl := connect(t, addrs)
		if _, err := cl.Engine(ctx, core.Options{}); !errors.Is(err, ErrNoDescriptor) {
			t.Fatalf("mount with no descriptor = %v, want ErrNoDescriptor", err)
		}
		for i, c := range cl.Clients {
			if c.ArrayEpoch() != 0 {
				t.Fatalf("refused mount stamped client %d at generation %d", i, c.ArrayEpoch())
			}
		}
		v, err := cl.Probe(ctx)
		if !errors.Is(err, ErrNoDescriptor) || v.Gen != 2 || v.Epoch != nil {
			t.Fatalf("probe = %+v, %v, want generation 2 with no epoch", v, err)
		}
	})
	t.Run("short-address-list", func(t *testing.T) {
		_, addrs, _, _ := grownCluster(t)
		if _, err := connect(t, addrs[:3]).Engine(ctx, core.Options{}); !errors.Is(err, ErrGeometry) {
			t.Fatalf("3 addresses for a 4-node epoch = %v, want ErrGeometry", err)
		}
	})
	t.Run("disk-counts", func(t *testing.T) {
		_, one := startNodes(t, 2, 1)
		_, two := startNodes(t, 1, 2)
		if _, err := Connect(append(one, two...)); err == nil || !strings.Contains(err.Error(), "disk(s)") {
			t.Fatalf("mismatched disk counts = %v, want a refusal", err)
		}
	})
	t.Run("too-few-nodes", func(t *testing.T) {
		_, addrs := startNodes(t, 1, 1)
		if _, err := connect(t, addrs).Engine(ctx, core.Options{}); !errors.Is(err, ErrGeometry) {
			t.Fatalf("one-node mount = %v, want ErrGeometry", err)
		}
	})
}

// TestMountStaleEpochRerun: when the cluster rebalances underneath a
// mount, the operation's stale-epoch rejection makes Run probe again,
// rebuild the engine at the new epoch and rerun the operation — exactly
// once; a second rejection surfaces.
func TestMountStaleEpochRerun(t *testing.T) {
	ctx := context.Background()
	nodes, addrs := startNodes(t, 6, 1) // 3 base nodes, 3 more to grow onto
	co := &coordinator{}
	ep := layout.NewEpoch(layout.NewOSM(3, 1, testBlocks))
	co.set(ep, false, 0)
	nodes[0].Manager.SetRebalance(co)
	// advance completes a grow by one node behind the mount's back.
	advance := func() {
		next, err := ep.Grow(1)
		if err != nil {
			t.Fatal(err)
		}
		ep = next
		co.set(ep, false, 0)
		for _, n := range nodes {
			n.Manager.AdoptEpoch(ep.Gen())
		}
	}
	cl := connect(t, addrs)
	buf := make([]byte, testBS)

	var engines []*core.RAIDx
	err := cl.Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		engines = append(engines, arr)
		if len(engines) == 1 {
			advance()
		}
		return arr.ReadBlocks(ctx, 0, buf)
	})
	if err != nil {
		t.Fatalf("operation across one epoch advance: %v", err)
	}
	if len(engines) != 2 || engines[0] == engines[1] {
		t.Fatalf("operation ran on %d engine(s), want a rerun on a rebuilt one", len(engines))
	}
	if g0, g1 := engines[0].Epoch().Gen(), engines[1].Epoch().Gen(); g0 != 0 || g1 != 1 {
		t.Fatalf("engines at generations %d then %d, want 0 then 1", g0, g1)
	}
	if w := len(engines[1].Devices()); w != 4 {
		t.Fatalf("rebuilt engine has %d columns, want the grown table's 4", w)
	}

	calls := 0
	err = cl.Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		calls++
		advance()
		return arr.ReadBlocks(ctx, 0, buf)
	})
	if !cdd.IsStaleEpoch(err) || calls != 2 {
		t.Fatalf("layout advancing under every attempt: %d call(s), err %v; want 2 calls and the stale-epoch error", calls, err)
	}
}
