package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cdd"
	"repro/internal/node"
)

// startNode runs one in-process node on addr, with 1 KiB blocks on
// persistent images under dir: a node restarted on the same dir and
// address comes back with its data.
func startNode(t *testing.T, addr, dir string) *node.Node {
	t.Helper()
	var cfg node.Config
	fs := flag.NewFlagSet("raidxnode", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse([]string{"-addr", addr, "-dir", dir, "-bs", "1024", "-blocks", "2048"}); err != nil {
		t.Fatal(err)
	}
	nd, err := node.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Abort)
	return nd
}

// startCluster runs n nodes, node i on dirs[i], and returns them with
// their -addrs string.
func startCluster(t *testing.T, dirs ...string) ([]*node.Node, string) {
	t.Helper()
	nodes := make([]*node.Node, len(dirs))
	addrs := make([]string, len(dirs))
	for i := range nodes {
		nodes[i] = startNode(t, "127.0.0.1:0", dirs[i])
		addrs[i] = nodes[i].Addr()
	}
	return nodes, strings.Join(addrs, ",")
}

// shell runs one raidxfs command and returns what it printed.
func shell(t *testing.T, ctx context.Context, addrs string, args ...string) (string, error) {
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
	rerr := run(ctx, addrs, "raidxfs-test", args)
	os.Stdout = saved
	w.Close()
	return <-out, rerr
}

// TestShellEndToEnd walks one file through the whole shell over a live
// 4-node cluster, then reads it back with a node dead (degraded mount)
// and with the lock home dead (reads work, mutations refuse typed).
func TestShellEndToEnd(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()}
	nodes, addrs := startCluster(t, dirs...)
	ctx := context.Background()
	dir := t.TempDir()
	data := make([]byte, 100<<10+123) // whole-block runs and a partial block, past the direct pointers
	rand.New(rand.NewSource(5)).Read(data)
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	get := func(path string) {
		t.Helper()
		if _, err := shell(t, ctx, addrs, "get", path, dst); err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %s: round-tripped bytes differ (%v)", path, err)
		}
	}
	for _, step := range []struct {
		args []string
		want string // substring of the output
	}{
		{[]string{"mkfs"}, "formatted: 4092 blocks x 1024 B over 4 disks"},
		{[]string{"mkdir", "/projects"}, ""},
		{[]string{"put", src, "/projects/notes"}, ""},
		{[]string{"ls", "/projects"}, fmt.Sprintf("- %10d  notes", len(data))},
		{[]string{"stat", "/projects/notes"}, fmt.Sprintf("/projects/notes: file, %d bytes", len(data))},
		{[]string{"df"}, "(RAID-x 4x1)"},
	} {
		out, err := shell(t, ctx, addrs, step.args...)
		if err != nil {
			t.Fatalf("%v: %v", step.args, err)
		}
		if !strings.Contains(out, step.want) {
			t.Fatalf("%v printed %q, want it to contain %q", step.args, out, step.want)
		}
	}
	get("/projects/notes")
	if _, err := shell(t, ctx, addrs, "mv", "/projects/notes", "/projects/kept"); err != nil {
		t.Fatal(err)
	}
	if out, err := shell(t, ctx, addrs, "ls", "/projects"); err != nil || !strings.Contains(out, "kept") || strings.Contains(out, "notes") {
		t.Fatalf("ls after mv: %q, %v", out, err)
	}
	if _, err := shell(t, ctx, addrs, "put", src, "/projects/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := shell(t, ctx, addrs, "rm", "/projects/doomed"); err != nil {
		t.Fatal(err)
	}
	if out, err := shell(t, ctx, addrs, "fsck"); err != nil || !strings.Contains(out, "0 leaked") {
		t.Fatalf("fsck: %q, %v", out, err)
	}

	// Degraded mount: one data node dead, the file still reads back from
	// the mirror images.
	nodes[2].Abort()
	get("/projects/kept")
	startNode(t, strings.Split(addrs, ",")[2], dirs[2])

	// Lock home dead: commands that take no lock groups still work;
	// anything that mutates refuses, typed, and changes nothing.
	nodes[0].Abort()
	get("/projects/kept")
	if _, err := shell(t, ctx, addrs, "mkdir", "/projects/new"); !errors.Is(err, errNoLockHome) {
		t.Fatalf("mkdir with the lock home down = %v, want errNoLockHome", err)
	}
	if _, err := shell(t, ctx, addrs, "mkfs"); !errors.Is(err, errNoLockHome) {
		t.Fatalf("mkfs with the lock home down = %v, want errNoLockHome", err)
	}
	if out, err := shell(t, ctx, addrs, "ls", "/projects"); err != nil || strings.Contains(out, "new") {
		t.Fatalf("ls after the refused mkdir: %q, %v", out, err)
	}
}

// TestMutationsTakeClusterLocks: raidxfs takes its lock groups from the
// cluster's lock home, not from a table private to the process. With
// the parent directory's lock group held through a second client, mkdir
// under a 200 ms context fails with context.DeadlineExceeded and leaves
// the directory unchanged; released, it succeeds.
func TestMutationsTakeClusterLocks(t *testing.T) {
	_, addrs := startCluster(t, t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir())
	ctx := context.Background()
	if _, err := shell(t, ctx, addrs, "mkfs"); err != nil {
		t.Fatal(err)
	}
	if _, err := shell(t, ctx, addrs, "mkdir", "/shared"); err != nil {
		t.Fatal(err)
	}

	holder, err := cdd.Connect(strings.Split(addrs, ",")[0])
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	// Every lock group of the file system, /shared's among them.
	all := []cdd.Range{{Start: 0, End: math.MaxUint64}}
	if err := holder.Lock(ctx, "another-host", all); err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := shell(t, short, addrs, "mkdir", "/shared/sub"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mkdir under a held lock group = %v, want context.DeadlineExceeded", err)
	}
	if out, err := shell(t, ctx, addrs, "ls", "/shared"); err != nil || out != "" {
		t.Fatalf("ls /shared after the blocked mkdir: %q, %v; want it empty", out, err)
	}

	if err := holder.Unlock(ctx, "another-host", all); err != nil {
		t.Fatal(err)
	}
	if _, err := shell(t, ctx, addrs, "mkdir", "/shared/sub"); err != nil {
		t.Fatalf("mkdir after release: %v", err)
	}
	if out, err := shell(t, ctx, addrs, "ls", "/shared"); err != nil || !strings.Contains(out, "sub") {
		t.Fatalf("ls /shared after release: %q, %v", out, err)
	}
}
