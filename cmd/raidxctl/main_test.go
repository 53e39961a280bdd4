package main

import (
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/mount"
	"repro/internal/node"
	"repro/internal/store"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	return <-out, ferr
}

// TestCoordinatorDownAfterRebalance: the nodes enforce generation 2 but
// nothing serves the layout behind it. The commands that place block
// I/O (rebuild, verify) must refuse typed — building the SEED map and
// stamping it with the current generation would make the nodes accept
// writes to wrong homes — while status, which only talks to nodes,
// still renders.
func TestCoordinatorDownAfterRebalance(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		d := disk.New(nil, "d", store.NewMem(512, 64), disk.DefaultModel())
		n, err := cdd.ListenAndServe("127.0.0.1:0", []*disk.Disk{d})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.Manager.AdoptEpoch(2)
		addrs[i] = n.Addr()
	}
	args := []string{"-addrs", strings.Join(addrs, ","), "-node", "1"}

	for name, cmd := range map[string]func() error{
		"verify":  func() error { return withEngine(args, core.Options{}, runVerify) },
		"rebuild": func() error { return withEngine(args, core.Options{}, runRebuild) },
	} {
		if _, err := captureStdout(t, cmd); !errors.Is(err, mount.ErrNoDescriptor) {
			t.Errorf("%s with no descriptor reachable = %v, want mount.ErrNoDescriptor", name, err)
		}
	}

	out, err := captureStdout(t, func() error { return withCluster(args, runStatus) })
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, want := range []string{
		"RAID-x over 4 node(s) x 1 disk(s)",
		"layout: mount: no reachable node serves the layout descriptor for layout epoch 2",
		"node 3 (" + addrs[3] + "):",
		"disk 0: 64 blocks, healthy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output lacks %q:\n%s", want, out)
		}
	}
}

// startNode runs one in-process raidxnode from flag strings.
func startNode(t *testing.T, args ...string) *node.Node {
	t.Helper()
	var cfg node.Config
	fs := flag.NewFlagSet("raidxnode", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse(append([]string{"-bs", "512", "-blocks", "256"}, args...)); err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Abort)
	return n
}

// TestGrowAgainstCoordinator drives the membership commands against a
// real coordinator: grow starts the rebalance, `rebalance status` follows
// it to the new epoch on every node, `repair status` renders the
// supervisor over the grown device table.
func TestGrowAgainstCoordinator(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := l.Addr().String()
	l.Close()
	addrs := []string{host}
	for i := 1; i < 6; i++ {
		addrs = append(addrs, startNode(t, "-addr", "127.0.0.1:0", "-name", "n"+strconv.Itoa(i)).Addr())
	}
	base, join, all := strings.Join(addrs[:4], ","), strings.Join(addrs[4:], ","), strings.Join(addrs, ",")
	startNode(t, "-addr", host, "-name", "n0", "-repair-cluster", base, "-repair-spares", "0", "-repair-poll", "5ms")

	out, err := captureStdout(t, func() error { return runGrow([]string{"-addrs", base, "-new-addrs", join}) })
	if err != nil || !strings.Contains(out, "grow by 2 node(s) started") {
		t.Fatalf("grow: %q, %v", out, err)
	}

	coordinator := host + ": epoch 1 [coordinator: base 4x1, 1 membership step(s)]\n"
	deadline := time.Now().Add(60 * time.Second)
	for {
		out, err = captureStdout(t, func() error { return runRebalance([]string{"status", "-addrs", all}) })
		if err != nil {
			t.Fatalf("rebalance status: %v", err)
		}
		if strings.Contains(out, coordinator) {
			break
		}
		if !strings.Contains(out, "MIGRATING to epoch 1") {
			t.Fatalf("rebalance status shows neither the migration nor its result:\n%s", out)
		}
		if time.Now().After(deadline) {
			t.Fatalf("grow never completed:\n%s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, a := range addrs[1:] {
		if !strings.Contains(out, a+": epoch 1\n") {
			t.Errorf("rebalance status lacks %q:\n%s", a+": epoch 1", out)
		}
	}

	out, err = captureStdout(t, func() error { return runRepair([]string{"status", "-addrs", all}) })
	if err != nil {
		t.Fatalf("repair status: %v", err)
	}
	if !strings.Contains(out, "repair supervisor on "+host+": running, no spare pool") || strings.Count(out, "healthy") != 6 {
		t.Errorf("repair status over the grown array:\n%s", out)
	}
}
