// Command raidxctl inspects and drives RAID-x clusters:
//
//	raidxctl layout -nodes 4 -disks 1 -rows 3    print the OSM block map
//	                                             (paper Figures 1a / 3)
//	raidxctl status -addrs host:port,...         show remote node disks
//	raidxctl stats -addrs host:port,...          per-node op counters,
//	                                             per-disk tables, latency
//	                                             percentiles, event log
//	raidxctl fail -addrs ... -node 2 -disk 0     inject a disk failure
//	raidxctl replace -addrs ... -node 2 -disk 0  install a blank disk
//	raidxctl rebuild -addrs ... -node 2 -disk 0  rebuild it from redundancy
//	                                             (refused while the repair
//	                                             supervisor owns the disk)
//	raidxctl verify -addrs ...                   check the array's redundancy
//	raidxctl super <image.img> ...               decode the checksummed
//	                                             superblock of on-disk
//	                                             images: geometry, UUIDs,
//	                                             clean-shutdown flag
//	raidxctl repair status -addrs ...            self-healing supervisor
//	raidxctl repair pause -addrs ...             state, and pause/resume
//	raidxctl repair resume -addrs ...            of background repair
//	raidxctl grow -addrs ... -new-addrs ...      add whole nodes online:
//	                                             minimal-movement rebalance
//	                                             migrates under live I/O
//	raidxctl shrink -addrs ... -nodes 1          retire tail nodes online
//	raidxctl rebalance status -addrs ...         layout epoch per node and
//	                                             migration progress
//	raidxctl trace -addrs ... -ops 8 -slowest 3  run traced probe reads and
//	                                             render waterfalls of the
//	                                             slowest, with each node's
//	                                             server-side spans merged in
//
// The -addrs list orders nodes (node i of the layout is the i-th
// address), so the same list must be used consistently; after a grow,
// append the joined nodes in join order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/mount"
	"repro/internal/raid"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "layout":
		err = runLayout(os.Args[2:])
	case "status":
		err = withCluster(os.Args[2:], runStatus)
	case "stats":
		err = withCluster(os.Args[2:], runStats)
	case "top":
		err = withCluster(os.Args[2:], runTop)
	case "fail":
		err = withCluster(os.Args[2:], runFail)
	case "replace":
		err = withCluster(os.Args[2:], runReplace)
	case "rebuild":
		err = withEngine(os.Args[2:], core.Options{}, runRebuild)
	case "verify":
		err = withEngine(os.Args[2:], core.Options{}, runVerify)
	case "super":
		err = runSuper(os.Args[2:])
	case "repair":
		err = runRepair(os.Args[2:])
	case "grow":
		err = runGrow(os.Args[2:])
	case "shrink":
		err = runShrink(os.Args[2:])
	case "rebalance":
		err = runRebalance(os.Args[2:])
	case "trace":
		// Record every probe op; assemble traces from the ring (no slow
		// log needed — the probe picks its own slowest).
		tr := trace.New(trace.Config{SlowThreshold: -1})
		err = withEngine(os.Args[2:], core.Options{Trace: tr}, runTrace)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "raidxctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "raidxctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: raidxctl <layout|status|stats|top|fail|replace|rebuild|verify|super|repair|grow|shrink|rebalance|trace> [flags]")
}

func runLayout(args []string) error {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "nodes (n)")
	disks := fs.Int("disks", 1, "disks per node (k)")
	rows := fs.Int("rows", 3, "data rows per disk to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	per := int64(*rows) * 2 * int64(*nodes-1) // enough slots for the rows shown
	lay := layout.NewOSM(*nodes, *disks, per*2)
	total := lay.TotalDisks()

	fmt.Printf("OSM layout, %dx%d array (stripe width %d, mirror groups of %d)\n\n",
		*nodes, *disks, lay.StripeWidth(), lay.GroupSize())
	fmt.Printf("%-6s", "")
	for j := 0; j < total; j++ {
		fmt.Printf(" %8s", fmt.Sprintf("D%d(n%d)", j, lay.NodeOfDisk(j)))
	}
	fmt.Println()
	for row := int64(0); row < int64(*rows); row++ {
		fmt.Printf("data%-2d", row)
		for j := 0; j < total; j++ {
			b := row*int64(total) + int64(j)
			if b < lay.DataBlocks() {
				fmt.Printf(" %8s", fmt.Sprintf("B%d", b))
			} else {
				fmt.Printf(" %8s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Println()
	groups := lay.DataBlocks() / int64(lay.GroupSize())
	shown := int64(0)
	for g := int64(0); g < groups && shown < int64(*rows)*int64(total); g++ {
		loc := lay.GroupLoc(g)
		blocks := lay.GroupBlocks(g)
		fmt.Printf("mirror group %-3d -> disk D%d (node %d) at block %d: images of B%d..B%d\n",
			g, loc.Disk, lay.NodeOfDisk(loc.Disk), loc.Block, blocks[0], blocks[len(blocks)-1])
		shown += int64(len(blocks))
	}
	return nil
}

// rig is a live cluster as a command sees it: the node connections
// and, for the commands that move blocks (rebuild, verify, trace), the
// engine internal/mount attached over them.
type rig struct {
	*mount.Cluster
	arr *core.RAIDx
}

// globalOf maps (node, local disk) to its column in ep's device table,
// -1 when the disk holds no column (or ep is unknown).
func globalOf(ep *layout.Epoch, node, local int) int {
	for d := 0; ep != nil && d < ep.Width(); d++ {
		if ep.NodeOf(d) == node && ep.LocalOf(d) == local {
			return d
		}
	}
	return -1
}

// attach connects to the comma-separated addrs through mount.Connect,
// the one path by which every subcommand reaches the nodes, and runs fn
// over them. It fails only when no node answers; each one that does not
// is warned about on stderr and left nil in Clients.
func attach(addrs string, fn func(cl *mount.Cluster) error) error {
	if addrs == "" {
		return fmt.Errorf("-addrs is required")
	}
	cl, err := mount.Connect(strings.Split(addrs, ","))
	if err != nil {
		return err
	}
	defer cl.Close()
	for i, err := range cl.Errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "raidxctl: warning: node %s unreachable (%v); operating degraded\n", cl.Addrs[i], err)
		}
	}
	return fn(cl)
}

// withCluster parses the shared flags, connects to the -addrs nodes
// and runs fn. It builds no engine, so the control commands (status,
// stats, top, fail, replace) work whatever state the layout is in.
func withCluster(args []string, fn func(fs *flag.FlagSet, r *rig) error) error {
	fs := flag.NewFlagSet("raidxctl", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated node addresses (required)")
	// The per-command flags are shared and read back through fs.Lookup
	// (target() for fail/replace/rebuild, runTrace for trace).
	fs.Int("node", 0, "target node index")
	fs.Int("disk", 0, "target local disk index")
	fs.Int("events", 8, "health events to show per node (stats)")
	fs.Int("ops", 8, "probe reads to run (trace)")
	fs.Int("slowest", 3, "waterfalls to render, slowest first (trace)")
	fs.Int("chunk", 256, "probe read size in KB (trace)")
	fs.String("id", "", "hex trace ID: assemble this trace from the node span rings instead of probing (trace)")
	fs.Duration("interval", time.Second, "refresh interval (top)")
	fs.Int("n", 0, "refresh iterations, 0 = until interrupted (top)")
	fs.Bool("plain", false, "do not clear the screen between refreshes (top)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return attach(*addrs, func(cl *mount.Cluster) error { return fn(fs, &rig{Cluster: cl}) })
}

// withEngine is withCluster plus an engine at the cluster's layout epoch
// (opts carries the trace command's tracer). mount.Run makes the
// refusals — rebalance in flight, no descriptor, short -addrs — and
// reruns fn on a rebuilt engine if the layout moves mid-command.
func withEngine(args []string, opts core.Options, fn func(fs *flag.FlagSet, r *rig) error) error {
	return withCluster(args, func(fs *flag.FlagSet, r *rig) error {
		return r.Run(context.Background(), opts, func(arr *core.RAIDx) error {
			r.arr = arr
			return fn(fs, r)
		})
	})
}

func target(fs *flag.FlagSet, r *rig) (node, disk int, err error) {
	node = atoi(fs.Lookup("node").Value.String())
	disk = atoi(fs.Lookup("disk").Value.String())
	if node < 0 || node >= len(r.Addrs) || disk < 0 || disk >= r.PerNode {
		return 0, 0, fmt.Errorf("target n%d/d%d out of range (%d nodes x %d disks)", node, disk, len(r.Addrs), r.PerNode)
	}
	return node, disk, nil
}

func atoi(s string) int {
	var n int
	fmt.Sscanf(s, "%d", &n)
	return n
}

func runStatus(fs *flag.FlagSet, r *rig) error {
	v, perr := r.Probe(context.Background())
	fmt.Printf("RAID-x over %d node(s) x %d disk(s)", len(r.Addrs), r.PerNode)
	if v.Epoch != nil {
		fmt.Printf("; capacity %d blocks x %d B", v.Epoch.DataBlocks(), r.BlockSize)
	}
	fmt.Println()
	switch {
	case perr != nil:
		fmt.Printf("layout: %v\n", perr)
	case v.Migrating:
		fmt.Printf("layout epoch %d: MIGRATING to epoch %d, cursor %d\n", v.Gen, v.TargetGen, v.Cursor)
	case v.Gen > 0:
		fmt.Printf("layout epoch %d: base %d node(s), %d active\n", v.Gen, v.Epoch.Base().Nodes, v.Epoch.Nodes())
	}
	for node, c := range r.Clients {
		if c == nil {
			fmt.Printf("node %d (%s): OFFLINE (unreachable)\n", node, r.Addrs[node])
			continue
		}
		fmt.Printf("node %d (%s):\n", node, c.Addr())
		for local := 0; local < r.PerNode; local++ {
			d := c.Dev(local)
			d.InvalidateHealth()
			state := "healthy"
			if !d.Healthy() {
				state = "FAILED"
			}
			line := fmt.Sprintf("  disk %d", local)
			if g := globalOf(v.Epoch, node, local); g >= 0 {
				line += fmt.Sprintf(" (global D%d)", g)
			}
			line += fmt.Sprintf(": %d blocks, %s", d.NumBlocks(), state)
			if st, err := c.Stats(local); err == nil {
				line += fmt.Sprintf("  [%d reads / %d writes, %d MB in / %d MB out]",
					st.Reads, st.Writes, st.BytesWritten>>20, st.BytesRead>>20)
			}
			fmt.Println(line)
		}
	}
	return nil
}

func runFail(fs *flag.FlagSet, r *rig) error {
	return diskOp(fs, r, (*cdd.NodeClient).FailDisk, "injected failure into node %d disk %d\n")
}

func runReplace(fs *flag.FlagSet, r *rig) error {
	return diskOp(fs, r, (*cdd.NodeClient).ReplaceDisk, "installed blank replacement at node %d disk %d (run rebuild next)\n")
}

// diskOp runs op on the target disk through its node and reports it as
// done with msg.
func diskOp(fs *flag.FlagSet, r *rig, op func(*cdd.NodeClient, int) error, msg string) error {
	node, disk, err := target(fs, r)
	if err != nil {
		return err
	}
	if r.Clients[node] == nil {
		return fmt.Errorf("node %d (%s) is offline", node, r.Addrs[node])
	}
	if err := op(r.Clients[node], disk); err != nil {
		return err
	}
	fmt.Printf(msg, node, disk)
	return nil
}

func runRebuild(fs *flag.FlagSet, r *rig) error {
	node, disk, err := target(fs, r)
	if err != nil {
		return err
	}
	global := globalOf(r.arr.Epoch(), node, disk)
	if global < 0 {
		return fmt.Errorf("node %d disk %d holds no column in epoch %d", node, disk, r.arr.Epoch().Gen())
	}
	rd, ok := r.arr.Devices()[global].(*cdd.RemoteDev)
	if !ok {
		return fmt.Errorf("node %d (%s) is offline; bring it back before rebuilding", node, r.Addrs[node])
	}
	// A manual rebuild racing the repair supervisor's own copy would
	// interleave two writers over the same device: refuse while any
	// reachable supervisor owns it.
	if owner, state := repairOwner(r, global); owner != "" {
		return fmt.Errorf("repair supervisor on %s owns D%d (state %s); wait for it to finish or run 'raidxctl repair pause' first", owner, global, state)
	}
	rd.InvalidateHealth()
	if err := r.arr.Rebuild(context.Background(), global); err != nil {
		return err
	}
	fmt.Printf("rebuilt global disk D%d (node %d disk %d)\n", global, node, disk)
	return nil
}

// repairStatus asks c for its repair supervisor's status: ok is false
// when c hosts none (it refuses the op), err a status that does not
// decode.
func repairStatus(ctx context.Context, c *cdd.NodeClient) (st repair.Status, ok bool, err error) {
	raw, err := c.RepairStatus(ctx)
	if err != nil {
		return st, false, nil
	}
	return st, true, json.Unmarshal(raw, &st)
}

// repairOwner reports which node's repair supervisor (if any) currently
// owns recovery of global device idx — degraded, rebuilding, or
// resyncing.
func repairOwner(r *rig, idx int) (addr string, state repair.State) {
	for i, c := range r.Clients {
		if c == nil {
			continue
		}
		st, ok, err := repairStatus(context.Background(), c)
		if !ok || err != nil || idx >= len(st.Devices) {
			continue
		}
		switch state := st.Devices[idx].State; state {
		case repair.StateDegraded, repair.StateRebuilding, repair.StateResyncing:
			return r.Addrs[i], state
		}
	}
	return "", ""
}

// runRepair drives the self-healing supervisor over the CDD wire:
// status, pause, resume. It probes every node and acts on whichever
// ones host a supervisor.
func runRepair(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: raidxctl repair <status|pause|resume> -addrs host:port,...")
	}
	action := args[0]
	switch action {
	case "status", "pause", "resume":
	default:
		return fmt.Errorf("unknown repair action %q (want status, pause, or resume)", action)
	}
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated node addresses (required)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	return attach(*addrs, func(cl *mount.Cluster) error {
		ctx := context.Background()
		found := 0
		for i, c := range cl.Clients {
			if c == nil {
				continue
			}
			a := cl.Addrs[i]
			switch action {
			case "status":
				st, ok, err := repairStatus(ctx, c)
				switch {
				case !ok:
					continue
				case err != nil:
					fmt.Printf("repair supervisor on %s: undecodable status: %v\n", a, err)
				default:
					renderRepairStatus(os.Stdout, a, st)
				}
			default:
				ctl := c.RepairPause
				if action == "resume" {
					ctl = c.RepairResume
				}
				if ctl(ctx) != nil {
					continue
				}
				fmt.Printf("%sd repair supervisor on %s\n", action, a)
			}
			found++
		}
		if found == 0 {
			return fmt.Errorf("no repair supervisor reachable (start a node with -repair-cluster)")
		}
		return nil
	})
}

// renderRepairStatus is one supervisor's block of `repair status`: its
// run state and spare pool, then a row per device.
func renderRepairStatus(w io.Writer, addr string, st repair.Status) {
	run := "running"
	if st.Paused {
		run = "PAUSED"
	}
	spares := "no spare pool"
	if st.Spares >= 0 {
		spares = fmt.Sprintf("%d spare(s) left", st.Spares)
	}
	fmt.Fprintf(w, "repair supervisor on %s: %s, %s\n", addr, run, spares)
	t := newTable(w, "  ", -4, -10, 0)
	for i, d := range st.Devices {
		line := fmt.Sprintf("since %s  rebuilds %d  resyncs %d", d.Since.Format("15:04:05"), d.Rebuilds, d.Resyncs)
		if d.ResyncBytes > 0 {
			line += fmt.Sprintf("  resynced %d KB", d.ResyncBytes>>10)
		}
		if st.Active == i && d.Prog.Total > 0 {
			line += fmt.Sprintf("  [rebuild %d/%d blocks]", d.Prog.Done, d.Prog.Total)
		}
		if d.LastErr != "" {
			line += "  last error: " + d.LastErr
		}
		t.row(fmt.Sprintf("D%d", i), d.State, line)
	}
}

// startRebalance asks the first node hosting a rebalance coordinator
// (the repair host: the one whose layout reply carries the descriptor)
// to grow or shrink the cluster by n nodes.
func startRebalance(addrs, verb string, n int, join []string) error {
	return attach(addrs, func(cl *mount.Cluster) error {
		ctx := context.Background()
		for _, c := range cl.Clients {
			if c == nil {
				continue
			}
			if li, err := c.Layout(ctx); err != nil || li.Desc == nil {
				continue
			}
			if err := c.RebalanceCtl(ctx, verb, n, join); err != nil {
				return err
			}
			fmt.Printf("%s by %d node(s) started; watch with: raidxctl rebalance status -addrs %s\n", verb, n, addrs)
			return nil
		}
		return fmt.Errorf("no rebalance coordinator reachable (start a node with -repair-cluster)")
	})
}

// runGrow adds whole nodes to a live cluster: the coordinator dials the
// joining nodes, derives the next layout epoch, and migrates the
// minimal block set in the background while foreground I/O continues.
func runGrow(args []string) error {
	fs := flag.NewFlagSet("grow", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated addresses of the CURRENT cluster nodes (required)")
	newAddrs := fs.String("new-addrs", "", "comma-separated addresses of the JOINING nodes, in join order (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrs == "" || *newAddrs == "" {
		return fmt.Errorf("-addrs and -new-addrs are required")
	}
	join := strings.Split(*newAddrs, ",")
	for i := range join {
		join[i] = strings.TrimSpace(join[i])
	}
	return startRebalance(*addrs, "grow", len(join), join)
}

// runShrink retires tail nodes from a live cluster.
func runShrink(args []string) error {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated node addresses (required)")
	nodes := fs.Int("nodes", 1, "tail nodes to retire")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return startRebalance(*addrs, "shrink", *nodes, nil)
}

// runRebalance reports the layout epoch each node enforces and, from
// the coordinator, migration progress.
func runRebalance(args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: raidxctl rebalance status -addrs host:port,...")
	}
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated node addresses (required)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	return attach(*addrs, func(cl *mount.Cluster) error {
		ctx := context.Background()
		for i, c := range cl.Clients {
			a := cl.Addrs[i]
			if c == nil {
				fmt.Printf("%s: unreachable (%v)\n", a, cl.Errs[i])
				continue
			}
			li, err := c.Layout(ctx)
			if err != nil {
				fmt.Printf("%s: layout query failed: %v\n", a, err)
				continue
			}
			line := fmt.Sprintf("%s: epoch %d", a, li.Gen)
			if d := li.Desc; d != nil {
				line += fmt.Sprintf(" [coordinator: base %dx%d, %d membership step(s)]", d.Nodes, d.DisksPerNode, len(d.Steps))
				if li.Migrating {
					line += fmt.Sprintf("  MIGRATING to epoch %d, cursor %d", li.TargetGen, li.Cursor)
				}
			}
			fmt.Println(line)
		}
		return nil
	})
}

// runSuper decodes the checksummed superblock of on-disk image files
// without opening them as stores (and so without marking them in use):
// geometry, format version, array/device identity, and whether the last
// shutdown was clean. The exit status is the audit result — any foreign,
// torn, truncated, or uncleanly-closed image fails the command, so a
// script can gate a restart on `raidxctl super dir/*.img`.
func runSuper(args []string) error {
	fs := flag.NewFlagSet("super", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: raidxctl super <image.img> ...")
	}
	bad := 0
	for _, path := range fs.Args() {
		sb, size, err := store.InspectSuperblock(store.OS, path)
		if err != nil {
			bad++
			fmt.Printf("%s: UNREADABLE: %v\n", path, err)
			continue
		}
		state := "CLEAN"
		if !sb.Clean {
			bad++
			state = "UNCLEAN (crashed or in use; expect a resync)"
		}
		want := store.SuperSize + int64(sb.BlockSize)*sb.Blocks
		short := ""
		if size < want {
			bad++
			state = "TRUNCATED"
			short = fmt.Sprintf(", file %d B short", want-size)
		}
		fmt.Printf("%s: %s\n", path, state)
		fmt.Printf("  v%d  %d blocks x %d B (%d MB%s)\n",
			sb.Version, sb.Blocks, sb.BlockSize, want>>20, short)
		fmt.Printf("  array  %s\n", store.UUIDString(sb.ArrayUUID))
		fmt.Printf("  device %s\n", store.UUIDString(sb.DeviceUUID))
		if sb.Version >= 2 {
			fmt.Printf("  epoch  %d\n", sb.ArrayEpoch)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d image(s) not clean", bad, fs.NArg())
	}
	return nil
}

func runVerify(fs *flag.FlagSet, r *rig) error {
	st, err := raid.Verify(context.Background(), r.arr)
	if err == nil {
		fmt.Printf("verify: redundancy intact: %d blocks checked, %d pending\n", st.BlocksChecked, st.Pending)
	}
	return err
}

// runTrace runs a read-only probe workload against the live array,
// fetches every node's server-side spans, and renders waterfalls for
// the slowest probes. On a degraded array the failover hop — primary
// read error plus mirror-image reads — shows up as a raidx.failover
// subtree with the time it cost.
func runTrace(fs *flag.FlagSet, r *rig) error {
	if id := fs.Lookup("id").Value.String(); id != "" {
		return runTraceByID(r, id)
	}
	tracer := r.arr.Tracer()
	ops := max(1, atoi(fs.Lookup("ops").Value.String()))
	slowest := atoi(fs.Lookup("slowest").Value.String())
	chunkKB := atoi(fs.Lookup("chunk").Value.String())
	bs := r.arr.BlockSize()
	total := r.arr.Blocks()
	blocksPer := min(max(int64(chunkKB)<<10/int64(bs), 1), total)
	buf := make([]byte, blocksPer*int64(bs))
	ctx := context.Background()

	// Deterministic probe: ops reads evenly spaced across the array.
	span := total - blocksPer
	step := int64(1)
	if ops > 1 {
		step = span / int64(ops-1)
	}
	failed := 0
	for i := 0; i < ops; i++ {
		off := min(step*int64(i), span)
		if err := r.arr.ReadBlocks(ctx, off, buf); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "raidxctl: probe read at block %d: %v\n", off, err)
		}
	}

	traces := tracer.Traces(0)
	if len(traces) == 0 {
		return fmt.Errorf("no traces recorded")
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Root.Dur > traces[j].Root.Dur })
	if slowest > 0 && len(traces) > slowest {
		traces = traces[:slowest]
	}

	// One span fetch per node; each waterfall merges from the same set.
	remote := nodeSpans(ctx, r)
	fmt.Printf("probe: %d read(s) x %d KB across %d blocks (%d failed); %d slowest:\n\n",
		ops, int(blocksPer)*bs>>10, total, failed, len(traces))
	for k := range traces {
		wf := traces[k]
		for i, sp := range remote {
			wf.Merge(sp, fmt.Sprintf("n%d", i))
		}
		trace.WriteWaterfall(os.Stdout, wf)
		fmt.Println()
	}
	return nil
}

// nodeSpans fetches every reachable node's recent server-side spans,
// indexed by node; a node that does not answer is warned about and
// left empty.
func nodeSpans(ctx context.Context, r *rig) [][]trace.Span {
	spans := make([][]trace.Span, len(r.Clients))
	for i, c := range r.Clients {
		if c == nil {
			continue
		}
		sp, err := c.TraceSpans(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "raidxctl: warning: node %d spans: %v\n", i, err)
			continue
		}
		spans[i] = sp
	}
	return spans
}
