package node

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faultnet"
	"repro/internal/mount"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/repair"
	"repro/internal/store"
)

const testBS = 1024

// TestNodeFlagsGolden pins the flag set RegisterFlags installs — name,
// default, usage, in PrintDefaults order — to the `raidxnode -h` of the
// commit before the runtime left package main. -pprof is not in the
// golden: it is process-level and stays in cmd/raidxnode/main.go.
func TestNodeFlagsGolden(t *testing.T) {
	var cfg Config
	fs := flag.NewFlagSet("raidxnode", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("raidxnode flag set moved (a flag added, removed, renamed or re-defaulted)\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// testCluster is a set of in-process nodes started from flag strings, as
// the process drills in cmd/raidxnode start theirs.
type testCluster struct {
	t     *testing.T
	nodes []*Node
	args  [][]string
}

func newTestCluster(t *testing.T) *testCluster {
	c := &testCluster{t: t}
	t.Cleanup(func() {
		for i := range c.nodes {
			c.stop(i, abort)
		}
	})
	return c
}

func parseFlags(t *testing.T, args []string) Config {
	t.Helper()
	var cfg Config
	fs := flag.NewFlagSet("raidxnode", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0", "-bs", fmt.Sprint(testBS)}, args...)); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// start starts one more node and returns its index.
func (c *testCluster) start(args ...string) int {
	c.t.Helper()
	n, err := Start(parseFlags(c.t, args))
	if err != nil {
		c.t.Fatalf("start node %v: %v", args, err)
	}
	c.nodes, c.args = append(c.nodes, n), append(c.args, args)
	return len(c.nodes) - 1
}

// restart starts node i again with the flags it was started with.
func (c *testCluster) restart(i int) {
	c.t.Helper()
	n, err := Start(parseFlags(c.t, c.args[i]))
	if err != nil {
		c.t.Fatalf("restart node %d: %v", i, err)
	}
	c.nodes[i] = n
}

// stop ends node i with Close or abort; it must return within a bound —
// both wait for every goroutine Start created.
func (c *testCluster) stop(i int, how func(*Node) error) {
	c.t.Helper()
	n := c.nodes[i]
	if n == nil {
		return
	}
	c.nodes[i] = nil
	done := make(chan error, 1)
	go func() { done <- how(n) }()
	select {
	case err := <-done:
		if err != nil {
			c.t.Errorf("stop node %d: %v", i, err)
		}
	case <-time.After(30 * time.Second):
		c.t.Fatalf("node %d did not stop within 30s", i)
	}
}

func abort(n *Node) error { n.Abort(); return nil }

// flagValue returns the value node i was given for a flag.
func (c *testCluster) flagValue(i int, name string) string {
	for k, a := range c.args[i] {
		if a == name {
			return c.args[i][k+1]
		}
	}
	c.t.Fatalf("node %d has no %s", i, name)
	return ""
}

func (c *testCluster) addrs(from, to int) []string {
	var out []string
	for _, n := range c.nodes[from:to] {
		out = append(out, n.Addr())
	}
	return out
}

// reserveAddr picks a loopback port that is free right now, for a node
// whose address must be known before it starts (the repair host lists
// itself in -repair-cluster) or must survive a restart.
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitWithin polls cond until it holds or the deadline passes.
func waitWithin(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var startedHere = regexp.MustCompile(`repro/internal/(node|repair|obs)\.`)

// requireNoGoroutines fails if a goroutine with a frame (or a "created
// by" line) from this package, internal/repair or internal/obs is still
// running — the HTTP loop, the supervisor's loop and runner, a completion
// wait, the SLO tracker's sampling loop. The
// test's own goroutines are told apart by testing.tRunner. Stop methods
// wait for their goroutines' last statement, not for the scheduler to
// retire them, so the predicate is polled within a bound.
func requireNoGoroutines(t *testing.T) {
	t.Helper()
	var last string
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 2)
		last = ""
		for _, g := range strings.Split(buf.String(), "\n\n") {
			if startedHere.MatchString(g) && !strings.Contains(g, "testing.tRunner") {
				last += g + "\n\n"
			}
		}
		if last == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines outlive the node:\n%s", last)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// layoutOf asks one node for its layout view.
func layoutOf(t *testing.T, addr string) cdd.LayoutInfo {
	t.Helper()
	c, err := cdd.Connect(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	li, err := c.Layout(context.Background())
	if err != nil {
		t.Fatalf("layout of %s: %v", addr, err)
	}
	return li
}

// TestNodeObservabilityAndTeardown: a node without -slo-p99 runs no
// sampling goroutine; the HTTP surfaces answer on a plain node, the one
// whose part is off is a 404, /stats/series is gone; and Close leaves no
// goroutine behind — the HTTP server and the SLO tracker's sampling loop
// included.
func TestNodeObservabilityAndTeardown(t *testing.T) {
	c := newTestCluster(t)
	c.start("-blocks", "64")
	requireNoGoroutines(t)
	i := c.start("-http", "127.0.0.1:0", "-blocks", "64", "-slo-p99", "50ms")
	for path, want := range map[string]int{
		"/stats": 200, "/metrics": 200, "/stats/series": 404, "/trace?n=2": 200,
		"/debug/pprof/cmdline": 200, "/repair": 404,
	} {
		rec := httptest.NewRecorder()
		c.nodes[i].Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != want {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, want)
		}
	}
	c.stop(i, (*Node).Close)
	requireNoGoroutines(t)
}

// growDrill is four base nodes and two joiners on persistent images,
// node 0 the repair host, with golden data written through a
// generation-0 mount that stays open.
type growDrill struct {
	*testCluster
	base, join, all []string
	gen0            *core.RAIDx // an engine mounted before the grow
	golden          []byte
}

func startGrowDrill(t *testing.T, blocks int, hostArgs ...string) *growDrill {
	t.Helper()
	d := &growDrill{testCluster: newTestCluster(t)}
	hostAddr := reserveAddr(t)
	// Slot 0 is the repair host; it dials the others at start, so they
	// come up first.
	d.nodes, d.args = append(d.nodes, nil), append(d.args, nil)
	for i := 1; i < 6; i++ {
		d.start("-name", fmt.Sprintf("g%d", i), "-dir", t.TempDir(), "-blocks", fmt.Sprint(blocks))
	}
	d.base = append([]string{hostAddr}, d.addrs(1, 4)...)
	d.join = d.addrs(4, 6)
	d.all = append(append([]string{}, d.base...), d.join...)
	d.args[0] = append([]string{
		"-name", "g0", "-addr", hostAddr, "-dir", t.TempDir(), "-blocks", fmt.Sprint(blocks),
		"-http", "127.0.0.1:0", "-repair-cluster", strings.Join(d.base, ","),
		"-repair-spares", "0", "-repair-poll", "5ms",
	}, hostArgs...)
	d.restart(0)

	cl, err := mount.Connect(d.base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx := context.Background()
	if d.gen0, err = cl.Engine(ctx, core.Options{}); err != nil {
		t.Fatal(err)
	}
	d.golden = make([]byte, d.gen0.Blocks()*testBS)
	for i := range d.golden {
		d.golden[i] = byte(i*7 + i>>10)
	}
	if err := d.gen0.WriteBlocks(ctx, 0, d.golden); err != nil {
		t.Fatal(err)
	}
	if err := d.gen0.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return d
}

// grow starts the grow over the wire, through a connection of its own.
func (d *growDrill) grow() {
	d.t.Helper()
	c, err := cdd.Connect(d.base[0])
	if err != nil {
		d.t.Fatal(err)
	}
	defer c.Close()
	if err := c.RebalanceCtl(context.Background(), "grow", len(d.join), d.join); err != nil {
		d.t.Fatalf("grow: %v", err)
	}
}

// requireGrown holds the end state of a completed grow to 6 nodes:
// every node enforces generation 1, the coordinator serves the stable
// descriptor, a fresh mount reads the golden data back and verifies
// clean, and — after an orderly stop, which must leave no goroutine —
// every image is clean and records the generation.
func (d *growDrill) requireGrown() {
	t := d.t
	t.Helper()
	ctx := context.Background()
	if li := layoutOf(t, d.base[0]); li.Migrating || li.Desc == nil || li.Desc.Gen() != 1 {
		t.Fatalf("coordinator layout after completion: %+v", li)
	}
	for i, a := range d.all {
		if li := layoutOf(t, a); li.Gen != 1 {
			t.Errorf("node %d enforces generation %d after the grow, want 1", i, li.Gen)
		}
	}
	cl, err := mount.Connect(d.all)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		if ep := arr.Epoch(); ep.Gen() != 1 || ep.Nodes() != 6 {
			return fmt.Errorf("mounted at epoch %d over %d nodes, want epoch 1 over 6", ep.Gen(), ep.Nodes())
		}
		got := make([]byte, len(d.golden))
		if err := arr.ReadBlocks(ctx, 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, d.golden) {
			return fmt.Errorf("data wrong after the grow")
		}
		return arr.Verify(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.nodes {
		d.stop(i, (*Node).Close)
	}
	requireNoGoroutines(t)
	for i := range d.args {
		img := filepath.Join(d.flagValue(i, "-dir"), d.flagValue(i, "-name")+"-d0.img")
		sb, _, err := store.InspectSuperblock(store.OS, img)
		if err != nil {
			t.Fatal(err)
		}
		if !sb.Clean || sb.ArrayEpoch != 1 {
			t.Errorf("node %d image: clean=%v epoch=%d, want clean at epoch 1", i, sb.Clean, sb.ArrayEpoch)
		}
	}
}

// minMoves is the least a 4 -> 6 grow can move: 2/6 of the blocks.
func (d *growDrill) minMoves() int64 { return d.gen0.Blocks() * 2 / 6 }

// movedBlocks reads the supervisor's rebalance-end event off the repair
// host's registry: "moved N blocks (M bytes)".
func movedBlocks(t *testing.T, n *Node) int64 {
	t.Helper()
	for _, e := range n.srv.Manager.Obs().Events().Events() {
		var blocks, bytes int64
		if e.Subject == "repair" {
			if _, err := fmt.Sscanf(e.Detail, "moved %d blocks (%d bytes)", &blocks, &bytes); err == nil {
				return blocks
			}
		}
	}
	t.Fatal("no rebalance-end event on the repair host")
	return 0
}

// TestGrowChaosFenceAtStartAndCompletion drives a 4 -> 6 grow through the
// real coordinator, in process. Fence at start: when RebalanceCtl returns,
// a mount opened before the grow is already locked out, typed, with no
// wait in between — the ordering Rebalance promises. Completion: the
// end state of requireGrown, with the completion broadcast triggered by
// the migration finishing.
func TestGrowChaosFenceAtStartAndCompletion(t *testing.T) {
	d := startGrowDrill(t, 256)
	d.grow()
	err := d.gen0.WriteBlocks(context.Background(), 0, d.golden[:testBS])
	if !cdd.IsStaleEpoch(err) {
		t.Fatalf("generation-0 write right after the grow started = %v, want a stale-epoch rejection", err)
	}
	waitWithin(t, 60*time.Second, "the grow to complete", func() bool {
		st := d.nodes[0].Supervisor().RebalanceStatus()
		return st != nil && st.Done && !st.Running
	})
	// Minimal movement, with growcheck's 1.25x slack.
	if moved, least := movedBlocks(t, d.nodes[0]), d.minMoves(); moved < least || moved > least+least/4 {
		t.Errorf("moved %d blocks, want within [%d, %d]", moved, least, least+least/4)
	}
	d.requireGrown()
}

// TestGrowChaosAbortRestart is the SIGKILL drill of cmd/raidxnode without
// a process: the repair host is Aborted mid-copy, past the first durable
// cursor, and started again on the same directories. The cursor resumes
// at or above the checkpoint, the grow completes, and the same end state
// holds.
func TestGrowChaosAbortRestart(t *testing.T) {
	// 2040 logical blocks; a 4 -> 6 grow moves the 680 from block 1360 up.
	// At 512 KiB/s the copy takes over a second, so an abort at cursor 1536
	// lands mid-flight with a quarter of the moves made and checkpointed.
	const abortAt = 1536
	d := startGrowDrill(t, 1024, "-qos-bg-rate", fmt.Sprint(512<<10))
	d.grow()
	waitWithin(t, 60*time.Second, "the cursor to pass a checkpoint", func() bool {
		li := layoutOf(t, d.base[0])
		return li.Migrating && li.Cursor >= abortAt
	})
	d.stop(0, abort)
	requireNoGoroutines(t)

	dir := d.flagValue(0, "-dir")
	sb, _, err := store.InspectSuperblock(store.OS, filepath.Join(dir, "g0-d0.img"))
	if err != nil || sb.Clean {
		t.Fatalf("aborted image: %+v, %v; want unclean", sb, err)
	}
	ck, err := repair.LoadRebalance(store.OS, filepath.Join(dir, "repair"))
	if err != nil || ck == nil || ck.Done || ck.Action != "grow" || ck.Nodes != 2 || ck.Cursor < abortAt {
		t.Fatalf("checkpoint after abort: %+v, %v; want an in-flight grow by 2 with cursor >= %d", ck, err, abortAt)
	}

	// Restart listing the full target membership, as the process drill does.
	for i, a := range d.args[0] {
		if a == "-repair-cluster" {
			d.args[0][i+1] = strings.Join(d.all, ",")
		}
	}
	d.restart(0)
	li := layoutOf(t, d.base[0])
	if !li.Migrating || li.Cursor < ck.Cursor {
		t.Fatalf("layout right after restart: %+v; want the grow resumed at or above cursor %d", li, ck.Cursor)
	}
	waitWithin(t, 60*time.Second, "the resumed grow to complete", func() bool {
		st := d.nodes[0].Supervisor().RebalanceStatus()
		return st != nil && st.Done && !st.Running
	})
	// A delta, not a restart: the resumed run copied less than a full grow.
	if moved := movedBlocks(t, d.nodes[0]); moved >= d.minMoves() {
		t.Errorf("resumed run moved %d blocks, a full grow moves %d: restarted from zero", moved, d.minMoves())
	}
	d.requireGrown()
}

// TestLayoutReplyNeverTorn hammers the coordinator's layout reply while a
// migration finishes, its last window held open by the pace hook: a
// reply must never pair a descriptor with another generation, and once
// the target generation was reported a reply below it must still say
// migrating — {source descriptor, not migrating} is the torn view two
// loads of the engine's epoch state used to allow.
func TestLayoutReplyNeverTorn(t *testing.T) {
	mk := func(n int) []raid.Dev {
		out := make([]raid.Dev, n)
		for i := range out {
			out[i] = disk.New(nil, fmt.Sprintf("d%d", i), store.NewMem(testBS, 256), disk.DefaultModel())
		}
		return out
	}
	arr, err := core.New(mk(4), 4, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := &coordinator{arr: arr}
	m, err := arr.BeginGrow(2, mk(2), 0)
	if err != nil {
		t.Fatal(err)
	}

	lastWindow, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	pace := func(context.Context, int) error {
		if cursor, _, _ := arr.Migrating(); cursor >= arr.Blocks()-64 {
			gate.Do(func() { close(lastWindow); <-release })
		}
		return nil
	}
	ran := make(chan error, 1)
	go func() { ran <- m.Run(context.Background(), pace, nil) }()
	select {
	case <-lastWindow:
	case err := <-ran:
		t.Fatalf("migration ended ungated: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sawTarget := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				raw, err := g.LayoutJSON()
				if err != nil {
					t.Error(err)
					return
				}
				var li cdd.LayoutInfo
				if err := json.Unmarshal(raw, &li); err != nil {
					t.Error(err)
					return
				}
				if li.Desc.Gen() != li.Gen {
					t.Errorf("torn reply: descriptor of generation %d under generation %d", li.Desc.Gen(), li.Gen)
					return
				}
				sawTarget = sawTarget || li.TargetGen == 1
				if sawTarget && li.Gen < 1 && !li.Migrating {
					t.Errorf("torn reply: generation %d, not migrating, after target 1 was reported", li.Gen)
					return
				}
				if li.Gen == 1 {
					return
				}
			}
		}()
	}
	close(release)
	err = <-ran
	close(stop) // readers end by themselves at generation 1; this ends them if it never comes
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestGrowChaosLiveTrafficPartition is the wire grow drill under a
// partition, through the real coordinator: a 4-node array grows to 12
// while readers and a writer hammer the coordinator's engine — the one
// sanctioned writer while blocks move — and one member is partitioned
// mid-rebalance. The repair host is assembled by hostRepair over
// connections dialed through faultnet (Start dials plainly; nothing else
// differs). Reads must see zero errors and zero wrong bytes throughout;
// the migration must finish within the minimal-movement bound; the
// post-heal supervisor must drain every write intent the partition
// produced; and the coordinator's own broadcasts — at start and at
// completion, nothing hand-rolled — must leave all twelve nodes
// enforcing the new generation.
func TestGrowChaosLiveTrafficPartition(t *testing.T) {
	const blocks = 96
	c := newTestCluster(t)
	for i := 0; i < 12; i++ {
		c.start("-name", fmt.Sprintf("p%d", i), "-blocks", fmt.Sprint(blocks))
	}
	fnet := faultnet.New(17)
	opts := cdd.Options{
		Retry: cdd.RetryPolicy{
			MaxAttempts: 4, CallTimeout: 250 * time.Millisecond,
			BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, ProbeInterval: 20 * time.Millisecond,
		},
		DialTimeout: time.Second,
		Dialer:      fnet.Dialer(),
	}
	cl := &mount.Cluster{Addrs: c.addrs(0, 4), Errs: make([]error, 4), PerNode: 1, BlockSize: testBS, Blocks: blocks}
	ctx := context.Background()
	for _, a := range cl.Addrs {
		nc, err := cdd.ConnectWith(ctx, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		cl.Clients = append(cl.Clients, nc)
	}
	// Unpaced, the ~128 KiB of moves is over before RebalanceCtl returns;
	// this rate stretches the copy over a second so the partition is
	// genuinely mid-rebalance.
	cfg := parseFlags(t, []string{"-blocks", fmt.Sprint(blocks), "-repair-spares", "0", "-repair-poll", "5ms",
		"-repair-budget", "10m", "-intent-region", "8", "-repair-state", t.TempDir(), "-qos-bg-rate", fmt.Sprint(128 << 10)})
	cfg.Repair.ScrubStride = -1
	coord, err := c.nodes[0].hostRepair(cfg, cl, qos.New(cfg.QoS))
	if err != nil {
		t.Fatal(err)
	}
	a, sup := coord.arr, c.nodes[0].Supervisor()

	bs := a.BlockSize()
	golden := make([]byte, int(a.Blocks())*bs)
	rand.New(rand.NewSource(91)).Read(golden)
	if err := a.WriteBlocks(ctx, 0, golden); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Readers over the stable region: zero errors, zero wrong bytes,
	// through the grow, the partition, and the heal.
	stable := a.Blocks() - 48
	var reads atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopReaders()
	for r := 0; r < 3; r++ {
		rng := rand.New(rand.NewSource(int64(92 + r)))
		wg.Add(1)
		go func() {
			defer wg.Done()
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
					return
				}
				if !bytes.Equal(buf, golden[off*int64(bs):(off+8)*int64(bs)]) {
					t.Errorf("foreground read at %d returned wrong data", off)
					return
				}
				reads.Add(1)
			}
		}()
	}

	ctl, err := cdd.Connect(c.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.RebalanceCtl(ctx, "grow", 8, c.addrs(4, 12)); err != nil {
		t.Fatal(err)
	}
	waitWithin(t, 10*time.Second, "migration to make progress", func() bool {
		cursor, _, active := a.Migrating()
		return active && cursor > 0
	})
	mig := a.CurrentMigration()
	if mig == nil {
		t.Fatal("no current migration after progress")
	}

	// Partition one base member mid-flight. The copier reads its donated
	// blocks from their mirrors; degraded foreground writes retry through
	// the detection window and log intents for every copy the member
	// missed.
	victim := cl.Addrs[1]
	fnet.Partition(victim)
	wbase := stable + 8
	wdata := make([]byte, 16*bs)
	rand.New(rand.NewSource(95)).Read(wdata)
	waitWithin(t, 20*time.Second, "a degraded write to succeed during the partition", func() bool {
		return a.WriteBlocks(ctx, wbase, wdata) == nil
	})
	copy(golden[wbase*int64(bs):], wdata)
	fnet.Heal(victim)

	waitWithin(t, 60*time.Second, "grow to complete", func() bool {
		st := sup.RebalanceStatus()
		return st != nil && st.Done && !st.Running
	})
	if gen := a.Epoch().Gen(); gen != 1 {
		t.Fatalf("epoch generation %d after grow, want 1", gen)
	}
	// The healed member catches up: the supervisor replays the intents
	// once the migration releases the array (resync refuses mid-flight,
	// typed, and the tick loop retries after).
	il := a.Members().Intent()
	waitWithin(t, 60*time.Second, "write intents to drain", func() bool {
		for i := 0; i < 12; i++ {
			if il.MissedBlocks(i) != 0 {
				return false
			}
		}
		return true
	})
	stopReaders()
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}

	// Rewrite the writer region once on the grown array, then audit
	// everything with the supervisor live: past generation 0 the rewrite
	// marks its deferred image writes up front and wakes a resync, which
	// the members' window orders against it.
	if err := a.WriteBlocks(ctx, wbase, wdata); err != nil {
		t.Fatalf("post-grow rewrite: %v", err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, addr := range c.addrs(0, 12) {
		if li := layoutOf(t, addr); li.Gen != 1 {
			t.Fatalf("node %d enforces epoch %d after the coordinator's broadcasts, want 1", i, li.Gen)
		}
	}
	got := make([]byte, len(golden))
	if err := a.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("data wrong after grow under partition")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after grow under partition: %v", err)
	}
	// Minimal movement held despite the partition: growing 4 -> 12 moves
	// 8/12 of the data blocks, within the 1.25x slack.
	moved, minMoves := mig.Status().MovedBlocks, a.Blocks()*8/12
	if moved < minMoves || moved > minMoves+minMoves/4 {
		t.Fatalf("moved %d blocks, want within [%d, %d]", moved, minMoves, minMoves+minMoves/4)
	}
	c.stop(0, (*Node).Close)
	requireNoGoroutines(t)
}

// TestGrowIntentReplication: intent snapshots follow the membership.
// Once a grow has completed, the next change to the repair host's
// intent log reaches the nodes that joined, not only the ones the host
// started with — a joiner's copy is as good as any for recovery.
func TestGrowIntentReplication(t *testing.T) {
	const blocks = 64
	c := newTestCluster(t)
	for i := 0; i < 6; i++ {
		c.start("-name", fmt.Sprintf("r%d", i), "-blocks", fmt.Sprint(blocks))
	}
	cl, err := mount.Connect(c.addrs(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := parseFlags(t, []string{"-blocks", fmt.Sprint(blocks), "-repair-spares", "0", "-repair-poll", "5ms", "-intent-region", "8"})
	cfg.Repair.ScrubStride = -1
	coord, err := c.nodes[0].hostRepair(cfg, cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ctl, err := cdd.Connect(c.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.RebalanceCtl(ctx, "grow", 2, c.addrs(4, 6)); err != nil {
		t.Fatal(err)
	}
	waitWithin(t, 30*time.Second, "the grow to complete", func() bool {
		st := c.nodes[0].Supervisor().RebalanceStatus()
		return st != nil && st.Done && !st.Running
	})

	coord.arr.Members().Intent().MarkRange(0, 0, 1)
	for _, addr := range c.addrs(4, 6) {
		joined, err := cdd.Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer joined.Close()
		waitWithin(t, 10*time.Second, "an intent snapshot on joined node "+addr, func() bool {
			snap, err := joined.GetIntent(ctx, cfg.Repair.Array)
			return err == nil && len(snap) > 0
		})
	}
}
