package main

// The real-process crash drill: raidxnode binaries are built and run,
// one is SIGKILLed mid-write-storm and restarted against the same -dir,
// and the repair supervisor must bring the array back to a clean Verify
// by delta-resyncing only the regions dirtied while the node was dead —
// with zero foreground I/O errors throughout. Superblocks must read
// unclean after the kill and clean after an orderly SIGTERM everywhere.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/mount"
	"repro/internal/repair"
	"repro/internal/store"
)

const (
	nBlocks = 256
	nBS     = 1024
)

// buildNode compiles the raidxnode binary once per test run.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "raidxnode")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build raidxnode: %v\n%s", err, out)
	}
	return bin
}

type nodeProc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	name   string
	addr   string
	dir    string
}

// startNode launches one raidxnode on addr (":0" learns a port through
// -addr-file) with persistent images under dir.
func startNode(t *testing.T, bin, name, addr, dir string, extra ...string) *nodeProc {
	t.Helper()
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := []string{
		"-addr", addr, "-addr-file", addrFile,
		"-name", name, "-dir", dir,
		"-disks", "1", "-blocks", fmt.Sprint(nBlocks), "-bs", fmt.Sprint(nBS),
	}
	args = append(args, extra...)
	n := &nodeProc{cmd: exec.Command(bin, args...), stderr: &bytes.Buffer{}, name: name, dir: dir}
	n.cmd.Stderr = n.stderr
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n.cmd.ProcessState == nil {
			n.cmd.Process.Kill()
			n.cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			n.addr = strings.TrimSpace(string(raw))
			return n
		}
		if n.cmd.ProcessState != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %s never published its address; stderr:\n%s", name, n.stderr)
	return nil
}

func (n *nodeProc) sigkill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	n.cmd.Wait()
}

func (n *nodeProc) sigterm(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { n.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("node %s ignored SIGTERM; stderr:\n%s", n.name, n.stderr)
	}
}

func (n *nodeProc) image() string {
	return filepath.Join(n.dir, n.name+"-d0.img")
}

func waitDevStatus(t *testing.T, sup *repair.Supervisor, idx int, within time.Duration, cond func(repair.DevStatus) bool, what string) {
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

func TestCrashRestartSIGKILLDeltaResync(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	bin := buildNode(t)
	const numNodes = 4
	procs := make([]*nodeProc, numNodes)
	for i := range procs {
		procs[i] = startNode(t, bin, fmt.Sprintf("n%d", i), "127.0.0.1:0", t.TempDir())
	}

	addrs := make([]string, numNodes)
	for i, p := range procs {
		addrs[i] = p.addr
	}
	cl, err := mount.Connect(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	il := intent.NewLog(numNodes, nBlocks, 8)
	arr, err := cl.Engine(context.Background(), core.Options{Intent: il, ForegroundMirror: true})
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	sup := repair.New(arr, nil, repair.Config{
		Poll:          5 * time.Millisecond,
		FailureBudget: 10 * time.Minute, // readmission only, never a spare
		ScrubStride:   4,
		StateDir:      stateDir,
	})

	ctx := context.Background()
	golden := make([]byte, arr.Blocks()*int64(nBS))
	rand.New(rand.NewSource(31)).Read(golden)
	if err := arr.WriteBlocks(ctx, 0, golden); err != nil {
		t.Fatal(err)
	}
	if err := arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	sup.Start(ctx)
	defer sup.Stop()

	// Foreground reader over the stable region: zero errors, zero wrong
	// bytes, through the kill, the restart, and the resync.
	stable := arr.Blocks() - 48
	var readErrs, reads atomic.Int64
	readerDone := make(chan struct{})
	readerStopped := make(chan struct{})
	go func() {
		defer close(readerStopped)
		rng := rand.New(rand.NewSource(32))
		buf := make([]byte, 8*nBS)
		for {
			select {
			case <-readerDone:
				return
			default:
			}
			off := int64(rng.Intn(int(stable) - 8))
			if err := arr.ReadBlocks(ctx, off, buf); err != nil {
				t.Errorf("foreground read at %d: %v", off, err)
				readErrs.Add(1)
				return
			}
			if !bytes.Equal(buf, golden[off*int64(nBS):(off+8)*int64(nBS)]) {
				t.Errorf("foreground read at %d returned wrong data", off)
				readErrs.Add(1)
				return
			}
			reads.Add(1)
		}
	}()

	// Write storm over the tail window; kill node 2 a few writes in.
	const victim = 2
	wbase := stable + 8
	rng := rand.New(rand.NewSource(33))
	storm := func(i int) {
		lb := wbase + rng.Int63n(32)
		buf := make([]byte, nBS)
		rng.Read(buf)
		deadline := time.Now().Add(20 * time.Second)
		for {
			if err := arr.WriteBlocks(ctx, lb, buf); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("storm write %d never succeeded", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
		copy(golden[lb*int64(nBS):], buf)
	}
	for i := 0; i < 5; i++ {
		storm(i)
	}
	procs[victim].sigkill(t)
	for i := 5; i < 30; i++ {
		storm(i)
	}
	if err := arr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if il.MissedBlocks(victim) == 0 {
		t.Fatal("storm against the killed node logged no intents")
	}

	// The killed node's image must carry the unclean mark on disk.
	sb, _, err := store.InspectSuperblock(store.OS, procs[victim].image())
	if err != nil {
		t.Fatal(err)
	}
	if sb.Clean {
		t.Fatal("SIGKILLed image inspects as clean")
	}

	// Restart against the SAME images and the SAME address; the array's
	// clients reconnect on their own and the supervisor resyncs the delta.
	procs[victim] = startNode(t, bin, procs[victim].name, procs[victim].addr, procs[victim].dir)
	waitDevStatus(t, sup, victim, 60*time.Second, func(st repair.DevStatus) bool {
		return st.Resyncs >= 1 && st.State == repair.StateHealthy
	}, "delta resync after restart")

	st := sup.Status().Devices[victim]
	if st.Rebuilds != 0 {
		t.Fatalf("restarted node was fully rebuilt (%d times); the delta must suffice", st.Rebuilds)
	}
	deviceBytes := int64(nBlocks) * nBS
	if st.ResyncBytes <= 0 || st.ResyncBytes >= deviceBytes/4 {
		t.Fatalf("resync moved %d bytes, want a small nonzero delta of the %d-byte device",
			st.ResyncBytes, deviceBytes)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "intent.snap")); err != nil {
		t.Fatalf("supervisor state dir never got a snapshot: %v", err)
	}

	close(readerDone)
	<-readerStopped
	if readErrs.Load() != 0 || reads.Load() == 0 {
		t.Fatalf("reader: %d errors over %d reads", readErrs.Load(), reads.Load())
	}
	if err := arr.Verify(ctx); err != nil {
		t.Fatalf("verify after crash/restart cycle: %v", err)
	}
	got := make([]byte, len(golden))
	if err := arr.ReadBlocks(ctx, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("data wrong after crash/restart cycle")
	}

	// Orderly shutdown everywhere: every image must inspect clean.
	sup.Stop()
	cl.Close()
	for _, p := range procs {
		p.sigterm(t)
	}
	for _, p := range procs {
		sb, _, err := store.InspectSuperblock(store.OS, p.image())
		if err != nil {
			t.Fatalf("%s: %v", p.image(), err)
		}
		if !sb.Clean {
			t.Fatalf("%s not marked clean after SIGTERM; stderr:\n%s", p.image(), p.stderr)
		}
	}
}

// TestCrashRepairHostStateDir exercises the -repair-cluster wiring of
// the binary itself: a node that hosts the repair supervisor persists
// supervisor state under <dir>/repair and shuts down clean.
func TestCrashRepairHostStateDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	bin := buildNode(t)
	dir := t.TempDir()

	// The peer comes up first on an ephemeral port; the repair host needs
	// every cluster address — including its own — before it starts, so its
	// port is reserved up front.
	peer := startNode(t, bin, "peer", "127.0.0.1:0", t.TempDir())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	p := startNode(t, bin, "host", addr, dir,
		"-repair-cluster", addr+","+peer.addr,
		"-repair-spares", "0", "-repair-poll", "5ms")
	c, err := cdd.Connect(p.addr)
	if err != nil {
		t.Fatalf("dial repair host: %v\nstderr:\n%s", err, p.stderr)
	}
	// The wire surface answers: a supervisor is attached.
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.RepairStatus(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair supervisor never attached; stderr:\n%s", p.stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Close()

	p.sigterm(t)
	peer.sigterm(t)
	if _, err := os.Stat(filepath.Join(dir, "repair", "repair.ckpt")); err != nil {
		t.Fatalf("repair host persisted no checkpoint: %v\nstderr:\n%s", err, p.stderr)
	}
	for _, n := range []*nodeProc{p, peer} {
		sb, _, err := store.InspectSuperblock(store.OS, n.image())
		if err != nil {
			t.Fatal(err)
		}
		if !sb.Clean {
			t.Fatalf("%s image not clean after SIGTERM; stderr:\n%s", n.name, n.stderr)
		}
	}
}
