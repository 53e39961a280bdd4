package main

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/mount"
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
