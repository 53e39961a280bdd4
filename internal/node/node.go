// Package node is the RAID-x node runtime: what one raidxnode process is.
// Start assembles it from a Config — the exported disks, the CDD server,
// the layout-generation fence seeded from the superblocks, tracing, QoS,
// the SLO tracker, the HTTP surfaces and, on the node given
// Repair.Cluster, the repair supervisor with its rebalance coordinator.
// cmd/raidxnode is flags and signals around Start and Close; in-process
// drills Abort a Node where a process drill would SIGKILL.
package node

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/mount"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/raid"
	"repro/internal/repair"
	"repro/internal/store"
)

// Config is a node's whole configuration: every raidxnode flag sets one
// field, here or in the config of the part it tunes (Start wires the rest).
type Config struct {
	Addr      string
	AddrFile  string
	Name      string
	Disks     int
	Blocks    int64
	BlockSize int
	Dir       string
	Epoch     uint64
	HTTP      string

	TraceSlow   time.Duration
	TraceSample int

	QoS qos.Config
	SLO obs.SLOConfig

	// Repair makes this node the repair host when Cluster is set.
	Repair struct {
		Cluster      string
		Spares       int
		IntentRegion int64
		Array        string
		repair.Config
	}
}

// RegisterFlags binds the raidxnode flag set to c: the one place the flag
// names, defaults and usage strings are spelled (TestNodeFlagsGolden).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:7000", "listen address")
	fs.IntVar(&c.Disks, "disks", 1, "disks to export")
	fs.Int64Var(&c.Blocks, "blocks", 4096, "blocks per disk")
	fs.IntVar(&c.BlockSize, "bs", 32<<10, "block size (bytes)")
	fs.StringVar(&c.Name, "name", "node", "node name (disk id prefix)")
	fs.StringVar(&c.Dir, "dir", "", "directory for persistent disk images (empty: in-memory)")
	fs.StringVar(&c.HTTP, "http", "", "HTTP listen address for /stats, /metrics, /trace and pprof (empty: disabled)")
	fs.DurationVar(&c.TraceSlow, "trace-slow", 0, "slow-log promotion threshold for server-side traces (0: default, negative: disabled)")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "record 1 in N server-side root traces (0: default)")
	fs.StringVar(&c.Repair.Cluster, "repair-cluster", "", "comma-separated addresses of ALL cluster nodes in SIOS order; enables the self-healing repair supervisor on this node (run on exactly one node)")
	fs.IntVar(&c.Repair.Spares, "repair-spares", 1, "local hot-spare disks the supervisor may swap in")
	fs.DurationVar(&c.Repair.FailureBudget, "repair-budget", 5*time.Second, "how long a member may stay dead before a spare is swapped in")
	fs.DurationVar(&c.Repair.Poll, "repair-poll", 250*time.Millisecond, "health-scan interval of the repair supervisor")
	fs.Int64Var(&c.Repair.IntentRegion, "intent-region", intent.DefaultRegionBlocks, "write-intent dirty-region granularity in blocks")
	fs.StringVar(&c.Repair.Array, "array", "raidx", "array name, the replication key for write-intent snapshots")
	fs.StringVar(&c.AddrFile, "addr-file", "", "write the actual listen address to this file once serving (for :0 ports)")
	fs.StringVar(&c.Repair.StateDir, "repair-state", "", "directory for the repair supervisor's local crash-recovery state (default <dir>/repair when -dir is set)")
	fs.Int64Var(&c.QoS.BackgroundBytesPerSec, "qos-bg-rate", 0, "QoS background (repair/resync/scrub) admission rate in bytes/sec (0: unlimited)")
	fs.DurationVar(&c.SLO.LatencyObjective, "slo-p99", 0, "foreground latency objective: ops slower than this burn the SLO budget (0: SLO tracker disabled)")
	fs.Float64Var(&c.SLO.ErrorBudget, "slo-err-budget", obs.DefaultSLOErrorBudget, "SLO error budget: allowed fraction of bad (slow or failed) foreground ops")
	fs.Int64Var(&c.SLO.MinBackgroundRate, "slo-min-bg", 0, "floor for SLO feedback stepping the background QoS rate down (0: baseline/16)")
	fs.Uint64Var(&c.Epoch, "epoch", 0, "asserted cluster array epoch: disk images recording a NEWER epoch are refused at open (0: skip the check)")
}

// Node is one running storage node.
type Node struct {
	srv    *cdd.Node
	images []*store.File      // the persistent disk images; none for memory disks
	sup    *repair.Supervisor // nil unless this node is the repair host
	stops  []func()           // one per part Start started, run in reverse by shutdown
}

// Addr reports the bound CDD listen address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Supervisor returns the repair supervisor; nil unless this node hosts it.
func (n *Node) Supervisor() *repair.Supervisor { return n.sup }

// Start brings a node up. A failed start is torn down like a crash: what
// it had opened is closed and no image is marked clean.
func Start(cfg Config) (_ *Node, err error) {
	n := &Node{}
	defer func() {
		if err != nil {
			n.Abort()
		}
	}()
	disks := make([]*disk.Disk, cfg.Disks)
	seed := cfg.Epoch // the fence starts at the highest generation asserted or recorded
	for i := range disks {
		id := fmt.Sprintf("%s-d%d", cfg.Name, i)
		var st store.BlockStore
		if cfg.Dir == "" {
			st = store.NewMem(cfg.BlockSize, cfg.Blocks)
		} else {
			if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
				return nil, err
			}
			img := filepath.Join(cfg.Dir, id+".img")
			fst, err := store.OpenFileFS(store.OS, img, cfg.BlockSize, cfg.Blocks, store.FileOptions{Epoch: cfg.Epoch})
			if err != nil {
				return nil, err
			}
			if !fst.WasClean() {
				log.Printf("raidxnode %s: %s was not shut down cleanly (device %s); contents may lag the mirrors until resync",
					cfg.Name, img, store.UUIDString(fst.DeviceUUID()))
			}
			n.images = append(n.images, fst)
			st, seed = fst, max(seed, fst.Epoch())
		}
		disks[i] = disk.New(nil, id, st, disk.DefaultModel())
	}
	if n.srv, err = cdd.ListenAndServe(cfg.Addr, disks); err != nil {
		return nil, err
	}
	mgr := n.srv.Manager
	log.Printf("raidxnode %s: exporting %d disk(s) x %d blocks x %d B on %s",
		cfg.Name, cfg.Disks, cfg.Blocks, cfg.BlockSize, n.Addr())
	if cfg.AddrFile != "" {
		// Written atomically so a harness polling the file never reads a
		// half-written address.
		if err := store.WriteFileAtomic(store.OS, cfg.AddrFile, []byte(n.Addr()+"\n")); err != nil {
			return nil, fmt.Errorf("-addr-file: %w", err)
		}
	}

	// Epoch fence bootstrap: persist every adopted generation into the
	// images' superblocks, and seed the fence from what they recorded —
	// a restarted node re-enforces the last generation it witnessed
	// without waiting for a coordinator broadcast.
	mgr.SetEpochNotify(func(gen uint64) {
		for _, fst := range n.images {
			if err := fst.SetEpoch(gen); err != nil {
				log.Printf("raidxnode: persist epoch %d: %v", gen, err)
			}
		}
	})
	mgr.AdoptEpoch(seed)

	if cfg.TraceSlow != 0 {
		mgr.Tracer().SetSlowThreshold(cfg.TraceSlow)
	}
	if cfg.TraceSample > 0 {
		mgr.Tracer().SetSampleEvery(cfg.TraceSample)
	}

	var sched *qos.Scheduler
	if cfg.QoS.BackgroundBytesPerSec > 0 {
		cfg.QoS.Obs = mgr.Obs()
		sched = qos.New(cfg.QoS)
		log.Printf("raidxnode %s: QoS: background I/O paced at %d B/s", cfg.Name, cfg.QoS.BackgroundBytesPerSec)
	}

	if slo := cfg.SLO; slo.LatencyObjective > 0 {
		slo.Name, slo.LatencyHist, slo.ErrorCounter, slo.OpsCounter = "fg", "mgr.fg_latency", "mgr.fg_errors", "mgr.fg_ops"
		mode := "observe-only: no -qos-bg-rate"
		if cfg.QoS.BackgroundBytesPerSec > 0 {
			slo.Actuator, mode = sched, "feedback onto background QoS rate"
		}
		tr := obs.NewSLOTracker(mgr.Obs(), slo)
		tr.Start()
		n.stops = append(n.stops, tr.Stop)
		log.Printf("raidxnode %s: SLO tracker: fg p99 objective %v, budget %.2g (%s)",
			cfg.Name, slo.LatencyObjective, slo.ErrorBudget, mode)
	}

	if cfg.Repair.Cluster != "" {
		cl, err := mount.Connect(strings.Split(cfg.Repair.Cluster, ","))
		if err == nil {
			_, err = n.hostRepair(cfg, cl, sched)
		}
		if err != nil {
			return nil, fmt.Errorf("repair supervisor: %w", err)
		}
		log.Printf("raidxnode %s: repair supervisor running over %s (%d spare(s), budget %v)",
			cfg.Name, cfg.Repair.Cluster, cfg.Repair.Spares, cfg.Repair.FailureBudget)
	}

	if cfg.HTTP != "" {
		ln, err := net.Listen("tcp", cfg.HTTP)
		if err != nil {
			return nil, fmt.Errorf("-http: %w", err)
		}
		web := &http.Server{Handler: n.Handler(), ReadHeaderTimeout: 5 * time.Second}
		done := make(chan struct{})
		n.stops = append(n.stops, func() { web.Close(); <-done })
		log.Printf("raidxnode %s: serving /stats /metrics /trace /debug/pprof on http://%s", cfg.Name, ln.Addr())
		go func() {
			defer close(done)
			if err := web.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("raidxnode: http: %v", err)
			}
		}()
	}
	return n, nil
}

// Handler serves the node's observability surfaces: /stats, /metrics,
// /trace, /debug/pprof and — on the repair host (else plain 404) —
// /repair.
func (n *Node) Handler() http.Handler {
	mgr := n.srv.Manager
	mux := http.NewServeMux()
	serve := func(path, contentType string, write func(io.Writer) error) {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", contentType)
			if err := write(w); err != nil {
				log.Printf("raidxnode: %s: %v", path, err)
			}
		})
	}
	serve("/stats", "application/json", mgr.Obs().WriteJSON)
	serve("/metrics", "text/plain; version=0.0.4", mgr.Obs().WriteProm)
	if n.sup != nil {
		serve("/repair", "application/json", func(w io.Writer) error { return json.NewEncoder(w).Encode(n.sup.Status()) })
	}
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		limit := 10
		if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil {
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(mgr.Tracer().Snapshot(limit)); err != nil {
			log.Printf("raidxnode: /trace: %v", err)
		}
	})
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// Close is the orderly teardown. The parts stop in the reverse of the
// order Start brought them up — HTTP, the supervisor (its checkpoint
// survives for the next start), the coordinator's connections, the
// SLO tracker — then the server drains and closes, and
// only THEN are the images synced and marked clean: the clean flag must
// never get ahead of the last client write. Every goroutine Start
// created has exited.
func (n *Node) Close() error { return n.shutdown((*store.File).CloseClean) }

// Abort leaves what a SIGKILL leaves — sockets closed, every goroutine
// gone, nothing flushed, no image marked clean — for drills that crash a
// node without a process.
func (n *Node) Abort() { n.shutdown((*store.File).Close) }

func (n *Node) shutdown(closeImage func(*store.File) error) error {
	for i := len(n.stops) - 1; i >= 0; i-- {
		n.stops[i]()
	}
	var errs []error
	if n.srv != nil {
		errs = append(errs, n.srv.Close())
	}
	for _, fst := range n.images {
		errs = append(errs, closeImage(fst))
	}
	return errors.Join(errs...)
}

// hostRepair makes this node the repair host over cl, the whole cluster
// mounted as a client: it runs the self-healing supervisor over the
// assembled array, attaches the rebalance coordinator and resumes a
// membership change a crash cut short. It owns cl's connections.
func (n *Node) hostRepair(nc Config, cl *mount.Cluster, sched *qos.Scheduler) (*coordinator, error) {
	cfg, mgr := nc.Repair, n.srv.Manager
	// The coordinator is the array's one repair writer: it mounts only
	// over a fully reachable membership.
	if err := errors.Join(cl.Errs...); err != nil {
		cl.Close()
		return nil, err
	}
	coord := &coordinator{mgr: mgr, cl: cl, peers: cl.Clients}
	n.stops = append(n.stops, coord.stop)
	if cfg.StateDir == "" && nc.Dir != "" {
		cfg.StateDir = filepath.Join(nc.Dir, "repair")
	}

	// Layout position: the epoch checkpoint (StateDir/epoch.json) records
	// the generation the array reached and any migration cut short by a
	// crash. With no checkpoint the engine is built at the layout the
	// nodes report, like any other mount; with one, at the checkpointed
	// source epoch — and, for a grow interrupted mid-migration, over a
	// table that already spans the target width (BeginGrow resumes with
	// no new devices).
	var ck *repair.RebalanceCkpt
	var err error
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, err
		}
		if ck, err = repair.LoadRebalance(store.OS, cfg.StateDir); err != nil {
			return nil, err
		}
	}
	// The engine grows the intent log to its device table's width, so it
	// is built before the snapshots below are merged in.
	il := intent.NewLog(0, nc.Blocks, cfg.IntentRegion)
	copts := core.Options{Obs: mgr.Obs(), Trace: mgr.Tracer(), Intent: il}
	if ck == nil {
		coord.arr, err = cl.Engine(context.Background(), copts)
	} else {
		growBy := 0
		if !ck.Done && ck.Action == "grow" {
			growBy = ck.Nodes
		}
		if coord.arr, err = cl.EngineAt(ck.Source, growBy, copts); err != nil {
			err = fmt.Errorf("epoch checkpoint: %w", err)
		}
	}
	if err != nil {
		return nil, err
	}
	// Crash recovery: the supervisor loads its own StateDir snapshot — the
	// freshest record of what this host dirtied before it died — when it
	// is constructed below. Merge whatever snapshot the peers kept for us
	// as well (snapshots union), so regions dirtied before a restart still
	// resync even when the local state died with the machine.
	recoverCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	for _, c := range cl.Clients {
		snap, err := c.GetIntent(recoverCtx, cfg.Array)
		if err != nil || len(snap) == 0 {
			continue
		}
		if err := il.Merge(snap); err != nil {
			log.Printf("raidxnode: stale intent snapshot from %s ignored: %v", c.Addr(), err)
		}
	}
	cancel()
	var spares []raid.Dev
	for i := 0; i < cfg.Spares; i++ {
		spares = append(spares, disk.New(nil, fmt.Sprintf("spare-%d", i),
			store.NewMem(nc.BlockSize, nc.Blocks), disk.DefaultModel()))
	}
	if sched != nil {
		// Maintenance traffic yields to foreground serving under the
		// background QoS rate, the one cap on its bandwidth.
		cfg.Pace = sched.Wait
	}
	cfg.Obs = mgr.Obs()
	cfg.Persist = func(snap []byte) { coord.replicate(cfg.Array, snap) }
	n.sup = repair.New(coord.arr, spares, cfg.Config)
	n.stops = append(n.stops, n.sup.Stop) // before coord.stop closes the connections under it
	coord.sup = n.sup
	// Completion without polling: the supervisor's runner repeats the
	// fence for the now-stable epoch; Stop (Close, Abort) cancels it.
	n.sup.OnRebalanceDone(func(ctx context.Context) {
		coord.fence(ctx)
		log.Printf("raidxnode: rebalance complete, epoch %d in force", coord.arr.Epoch().Gen())
	})
	mgr.SetRepair(n.sup)
	mgr.SetRebalance(coord)
	// The mount stamped this host's connections with the mounted
	// generation; enforce it on this node too. The coordinator does not
	// go through mount.Run's stale-epoch recovery: its engine is
	// migration-aware, so a stale rejection means a foreign coordinator
	// moved the layout underneath it — fail typed rather than guess.
	mgr.AdoptEpoch(coord.arr.Epoch().Gen())
	// Resume an interrupted migration BEFORE background jobs run: blocks
	// below the checkpointed cursor already live at their target homes,
	// and only the restored migration state routes reads there. The
	// resumed copy re-covers at most the window lost after the last
	// checkpoint — a delta, not a restart.
	if ck != nil && !ck.Done {
		if err := n.sup.StartRebalance(ck.Action, ck.Nodes, nil, ck.Cursor); err != nil {
			return nil, fmt.Errorf("resume epoch checkpoint: %w", err)
		}
		log.Printf("raidxnode: resuming %s by %d node(s) at block %d (epoch %d)",
			ck.Action, ck.Nodes, ck.Cursor, coord.arr.Epoch().Gen())
		coord.fence(context.Background())
	}
	n.sup.Start(context.Background())
	return coord, nil
}

// coordinator implements cdd.RebalanceController over the repair
// supervisor: raidxctl grow|shrink land here via OpRebalanceCtl, and
// OpLayout serves the full epoch descriptor clients rebuild their
// placement maps from.
type coordinator struct {
	mgr *cdd.Manager // this node's own fence
	sup *repair.Supervisor
	arr *core.RAIDx

	mu    sync.Mutex        // guards cl and peers; held across a fence's broadcast
	cl    *mount.Cluster    // the membership in node order: what a grow extends
	peers []*cdd.NodeClient // every node ever dialed: broadcast targets, closed by stop
}

// LayoutJSON serves the stable epoch descriptor plus migration progress
// while one is in flight, from ONE load of the engine's view: a migration
// finishing mid-reply is never served as {source epoch, not migrating}.
func (g *coordinator) LayoutJSON() ([]byte, error) {
	ep, cursor, target := g.arr.EpochView()
	desc := ep.Desc()
	li := cdd.LayoutInfo{Gen: ep.Gen(), Desc: &desc}
	if target != nil {
		li.Migrating, li.Cursor, li.TargetGen = true, cursor, target.Gen()
	}
	return json.Marshal(li)
}

// Rebalance starts a membership change. Refusals (a rebalance already in
// flight, recovery busy, bad geometry, an unknown action) come back typed
// from the supervisor and travel to raidxctl as remote errors.
func (g *coordinator) Rebalance(action string, nodes int, addrs []string) (err error) {
	if action == "grow" {
		err = g.grow(nodes, addrs)
	} else {
		err = g.sup.StartRebalance(action, nodes, nil, 0)
	}
	if err != nil {
		return err
	}
	// Lock every older map out before blocks start moving in earnest:
	// from here on the coordinator is the only sanctioned writer, and any
	// other mount's I/O — placed with the source layout or with none —
	// bounces typed instead of landing at homes the copy will retire.
	g.fence(context.Background())
	return nil
}

// grow dials the joining nodes and starts the migration onto them. Their
// columns are the tail of the grown epoch's device table over the extended
// membership: mount's Table is the only place column order is spelled.
func (g *coordinator) grow(nodes int, addrs []string) error {
	if len(addrs) != nodes {
		return fmt.Errorf("grow by %d node(s) needs %d address(es), got %d", nodes, nodes, len(addrs))
	}
	joined, err := mount.Connect(addrs)
	if err != nil {
		return fmt.Errorf("dial joining nodes: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Node order: the epoch's active nodes (a shrink may have retired the
	// tail of cl), then the joiners in join order.
	ep, ext := g.arr.Epoch(), *g.cl
	ext.Addrs = append(slices.Clone(ext.Addrs[:ep.Nodes()]), joined.Addrs...)
	ext.Clients = append(slices.Clone(ext.Clients[:ep.Nodes()]), joined.Clients...)
	ext.Errs = make([]error, len(ext.Addrs))
	var table []raid.Dev
	next, err := ep.Grow(nodes)
	if err == nil {
		err = errors.Join(joined.Errs...)
	}
	if err == nil && joined.PerNode < ext.PerNode {
		err = fmt.Errorf("joining nodes export %d disk(s), need %d", joined.PerNode, ext.PerNode)
	}
	if err == nil {
		table, err = ext.Table(next)
	}
	if err == nil {
		err = g.sup.StartGrow(nodes, table[ep.Width():], 0)
	}
	if err != nil {
		joined.Close()
		return err
	}
	g.cl, g.peers = &ext, append(g.peers, joined.Clients...)
	return nil
}

// fence brings every member to the generation the array is heading for:
// the target of the migration in flight, or the stable epoch once it has
// completed. The coordinator's own connections are re-stamped first, so
// its I/O — the one writer that routes around the copy cursor — passes
// the check it is about to raise; then this node adopts; then the
// broadcast. A member adopts a generation durably (superblock) and never
// lowers it, so one broadcast at migration start guards the whole copy; a
// member that misses it catches up from the first coordinator I/O it
// serves (requests ahead of a node's generation are adopted) and from
// the completion broadcast.
func (g *coordinator) fence(ctx context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ep, _, target := g.arr.EpochView()
	if target != nil {
		ep = target
	}
	gen := ep.Gen()
	for _, c := range g.peers {
		c.SetArrayEpoch(gen)
	}
	g.mgr.AdoptEpoch(gen)
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, c := range g.peers {
		if _, err := c.EpochSet(ctx, gen); err != nil {
			log.Printf("raidxnode: epoch %d broadcast to %s: %v", gen, c.Addr(), err)
		}
	}
}

// replicate pushes an intent snapshot to every node of the current
// membership, best effort: any one surviving copy is enough for
// recovery. The membership is read under g.mu — a grow installs a new
// one, joiners included — and the pushes run outside it.
func (g *coordinator) replicate(array string, snap []byte) {
	g.mu.Lock()
	clients := g.cl.Clients
	g.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, c := range clients {
		if err := c.PutIntent(ctx, array, snap); err != nil {
			log.Printf("raidxnode: intent replication to %s: %v", c.Addr(), err)
		}
	}
}

// stop closes every connection the coordinator holds.
func (g *coordinator) stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.peers {
		c.Close()
	}
}
