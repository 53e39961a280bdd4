// Command raidxfs is a shell for a file system living on a RAID-x
// assembled from live CDD nodes — the whole paper's stack, drivable
// from a terminal:
//
//	ADDRS=host:7001,host:7002,host:7003,host:7004
//	raidxfs -addrs $ADDRS mkfs
//	raidxfs -addrs $ADDRS mkdir /projects
//	raidxfs -addrs $ADDRS put  local.txt /projects/notes
//	raidxfs -addrs $ADDRS ls   /projects
//	raidxfs -addrs $ADDRS get  /projects/notes -        # to stdout
//	raidxfs -addrs $ADDRS stat /projects/notes
//	raidxfs -addrs $ADDRS rm   /projects/notes
//	raidxfs -addrs $ADDRS fsck            # or: fsck -repair
//
// The -addrs list orders nodes (node i of the layout is the i-th
// address; internal/mount builds the device table). The first address is
// also the lock home: every mutating command takes its lock groups from
// that node's consistency module, so concurrent raidxfs invocations —
// other shells, other hosts — exclude each other. With the lock home
// down, commands that take no locks (ls, get, stat, df, fsck) still work
// degraded; the rest refuse ("lock home unreachable").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/mount"
)

func main() {
	addrs := flag.String("addrs", "", "comma-separated CDD node addresses (required)")
	owner := flag.String("owner", "raidxfs", "lock-table owner identity")
	flag.Parse()
	args := flag.Args()
	if *addrs == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: raidxfs -addrs a,b,c <mkfs|ls|mkdir|put|get|rm|mv|stat|df|fsck> [args]")
		os.Exit(2)
	}
	// The lock table is the cluster's, so the identity must tell this
	// invocation from every other: an owner never conflicts with itself.
	host, _ := os.Hostname()
	id := fmt.Sprintf("%s@%s/%d", *owner, host, os.Getpid())
	if err := run(context.Background(), *addrs, id, args); err != nil {
		fmt.Fprintln(os.Stderr, "raidxfs:", err)
		os.Exit(1)
	}
}

// errNoLockHome refuses a mutating command while the lock home — the
// first -addrs node — is unreachable: mutating without its lock groups
// could interleave with another client's update of the same directory.
var errNoLockHome = errors.New("lock home unreachable")

// noLockHome is the Locker of a mount whose lock home is down.
type noLockHome struct{ addr string }

func (l noLockHome) Lock(context.Context, string, []cdd.Range) error {
	return fmt.Errorf("%w (%s): refusing to modify the file system without its lock groups", errNoLockHome, l.addr)
}
func (noLockHome) Unlock(context.Context, string, []cdd.Range) error { return nil }

func run(ctx context.Context, addrs, owner string, args []string) error {
	cl, err := mount.Connect(strings.Split(addrs, ","))
	if err != nil {
		return err
	}
	defer cl.Close()
	for i, err := range cl.Errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "raidxfs: warning: node %s unreachable (%v); operating degraded\n", cl.Addrs[i], err)
		}
	}
	var lk fsim.Locker = noLockHome{cl.Addrs[0]}
	if home := cl.Clients[0]; home != nil {
		lk = home
	}
	// The command reruns from scratch on a rebuilt engine if the cluster
	// rebalances underneath it (mount.Run).
	return cl.Run(ctx, core.Options{}, func(arr *core.RAIDx) error {
		return runCmd(ctx, arr, lk, owner, args, cl.PerNode)
	})
}

// runCmd executes one shell command against an assembled engine.
func runCmd(ctx context.Context, arr *core.RAIDx, lk fsim.Locker, owner string, args []string, perNode int) error {
	cmd, rest := args[0], args[1:]
	if cmd == "mkfs" {
		// Formatting excludes every other client: it holds the whole lock
		// space (and so refuses, like any mutation, without a lock home).
		all := []cdd.Range{{Start: 0, End: math.MaxUint64}}
		if err := lk.Lock(ctx, owner, all); err != nil {
			return err
		}
		defer lk.Unlock(ctx, owner, all)
		_, err := fsim.Mkfs(ctx, arr, lk, owner, fsim.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("formatted: %d blocks x %d B over %d disks\n", arr.Blocks(), arr.BlockSize(), len(arr.Devices()))
		return nil
	}

	fs, err := fsim.Mount(ctx, arr, lk, owner)
	if err != nil {
		return err
	}
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("%s: missing argument", cmd)
		}
		return nil
	}
	switch cmd {
	case "ls":
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		ents, err := fs.ReadDir(ctx, path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			info, err := fs.Stat(ctx, strings.TrimRight(path, "/")+"/"+e.Name)
			if err != nil {
				return err
			}
			kind := "-"
			if info.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %10d  %s\n", kind, info.Size, e.Name)
		}
		return nil

	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return fs.MkdirAll(ctx, rest[0])

	case "put":
		if err := need(2); err != nil {
			return err
		}
		var data []byte
		if rest[0] == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(rest[0])
		}
		if err != nil {
			return err
		}
		if err := fs.WriteFile(ctx, rest[1], data); err != nil {
			return err
		}
		return fs.Flush(ctx)

	case "get":
		if err := need(1); err != nil {
			return err
		}
		data, err := fs.ReadFile(ctx, rest[0])
		if err != nil {
			return err
		}
		if len(rest) < 2 || rest[1] == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		return os.WriteFile(rest[1], data, 0o644)

	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return fs.Remove(ctx, rest[0])

	case "stat":
		if err := need(1); err != nil {
			return err
		}
		info, err := fs.Stat(ctx, rest[0])
		if err != nil {
			return err
		}
		kind := "file"
		if info.IsDir {
			kind = "directory"
		}
		fmt.Printf("%s: %s, %d bytes, inode %d\n", rest[0], kind, info.Size, info.Ino)
		return nil

	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return fs.Rename(ctx, rest[0], rest[1])

	case "fsck":
		repair := len(rest) > 0 && rest[0] == "-repair"
		var rep *fsim.FsckReport
		if repair {
			rep, err = fs.Repair(ctx)
		} else {
			rep, err = fs.Fsck(ctx)
		}
		if err != nil {
			return err
		}
		fmt.Println(rep)
		for _, p := range rep.Problems {
			fmt.Println("  problem:", p)
		}
		if !rep.OK() {
			return fmt.Errorf("volume inconsistent (re-run with -repair to release leaks)")
		}
		return nil

	case "df":
		st, err := fs.StatFS(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("array: %d blocks x %d B = %d MB raw (RAID-x %dx%d)\n",
			arr.Blocks(), arr.BlockSize(), arr.Blocks()*int64(arr.BlockSize())>>20, arr.Epoch().Nodes(), perNode)
		fmt.Printf("fs:    %d/%d data blocks free (%d MB), %d/%d inodes free\n",
			st.FreeBlocks, st.TotalBlocks, st.FreeBlocks*int64(st.BlockSize)>>20,
			st.FreeInodes, st.TotalInodes)
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}
