// Command raidxnode runs one cooperative-disk-driver storage node: it
// exports a set of disks over the CDD wire protocol so remote clients
// can assemble distributed arrays across nodes. With several raidxnode
// processes (one per host, or per port on one host) and a client using
// the raidx package, the serverless cluster of the paper runs for real
// over TCP.
//
//	raidxnode -addr :7000 -disks 1 -blocks 4096 -bs 32768
//
// With -http the node additionally serves its observability surfaces:
//
//	raidxnode -addr :7000 -http :7080
//	curl http://localhost:7080/stats          # obs registry as JSON
//	curl http://localhost:7080/metrics        # Prometheus text format
//	curl http://localhost:7080/trace?n=5      # recent + slow traces, JSON
//	go tool pprof http://localhost:7080/debug/pprof/profile
//
// -pprof writes a CPU profile of the whole run to a file (stopped and
// flushed on shutdown), for profiling without the HTTP listener.
//
// With -repair-cluster the node also runs the self-healing repair
// supervisor over the whole array (run it on exactly one node — the
// repair host). The host mounts the cluster as a client, watches member
// health, swaps local hot spares for members that stay dead past the
// failure budget, rebuilds them in the background, and delta-resyncs
// members that return after a blip. Its write-intent log is replicated
// to every node through the CDD protocol, so a restarted host recovers
// the dirty map from any survivor:
//
//	raidxnode -addr :7000 -repair-cluster :7000,:7001,:7002,:7003 \
//	          -repair-spares 1 -repair-budget 5s
//	curl http://localhost:7080/repair         # supervisor status, JSON
//	raidxctl repair status -addrs :7000,...   # same, over the CDD wire
//
// Disks are in-memory by default (this reproduction's substitute for
// the Trojans cluster's SCSI drives); with -dir they become persistent
// file-backed images that survive restarts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
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

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "listen address")
	nDisks := flag.Int("disks", 1, "disks to export")
	blocks := flag.Int64("blocks", 4096, "blocks per disk")
	bs := flag.Int("bs", 32<<10, "block size (bytes)")
	name := flag.String("name", "node", "node name (disk id prefix)")
	dir := flag.String("dir", "", "directory for persistent disk images (empty: in-memory)")
	httpAddr := flag.String("http", "", "HTTP listen address for /stats, /metrics, /trace and pprof (empty: disabled)")
	pprofOut := flag.String("pprof", "", "write a CPU profile of the whole run to this file")
	traceSlow := flag.Duration("trace-slow", 0, "slow-log promotion threshold for server-side traces (0: default, negative: disabled)")
	traceSample := flag.Int("trace-sample", 0, "record 1 in N server-side root traces (0: default)")
	repairCluster := flag.String("repair-cluster", "", "comma-separated addresses of ALL cluster nodes in SIOS order; enables the self-healing repair supervisor on this node (run on exactly one node)")
	repairSpares := flag.Int("repair-spares", 1, "local hot-spare disks the supervisor may swap in")
	repairBudget := flag.Duration("repair-budget", 5*time.Second, "how long a member may stay dead before a spare is swapped in")
	repairRate := flag.Int64("repair-rate", 0, "background repair bandwidth cap in bytes/sec (0: unlimited)")
	repairPoll := flag.Duration("repair-poll", 250*time.Millisecond, "health-scan interval of the repair supervisor")
	intentRegion := flag.Int64("intent-region", intent.DefaultRegionBlocks, "write-intent dirty-region granularity in blocks")
	arrayName := flag.String("array", "raidx", "array name, the replication key for write-intent snapshots")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once serving (for :0 ports)")
	repairState := flag.String("repair-state", "", "directory for the repair supervisor's local crash-recovery state (default <dir>/repair when -dir is set)")
	qosFG := flag.Int64("qos-fg-rate", 0, "QoS foreground (client I/O) admission rate in bytes/sec (0: unlimited)")
	qosBG := flag.Int64("qos-bg-rate", 0, "QoS background (repair/resync/scrub) admission rate in bytes/sec (0: unlimited)")
	sampleEvery := flag.Duration("sample", obs.DefaultSampleInterval, "time-series sampling interval for /stats/series (0: sampler disabled)")
	sampleCap := flag.Int("sample-cap", obs.DefaultSampleCapacity, "time-series ring capacity (samples retained)")
	sloP99 := flag.Duration("slo-p99", 0, "foreground latency objective: ops slower than this burn the SLO budget (0: SLO tracker disabled)")
	sloBudget := flag.Float64("slo-err-budget", obs.DefaultSLOErrorBudget, "SLO error budget: allowed fraction of bad (slow or failed) foreground ops")
	sloFast := flag.Duration("slo-fast", obs.DefaultSLOFastWindow, "SLO fast burn window")
	sloSlow := flag.Duration("slo-slow", obs.DefaultSLOSlowWindow, "SLO slow burn window")
	sloMinBG := flag.Int64("slo-min-bg", 0, "floor for SLO feedback stepping the background QoS rate down (0: baseline/16)")
	epochGen := flag.Uint64("epoch", 0, "asserted cluster array epoch: disk images recording a NEWER epoch are refused at open (0: skip the check)")
	flag.Parse()

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			log.Fatalf("raidxnode: -pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("raidxnode: -pprof: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("raidxnode: -pprof: %v", err)
			}
			log.Printf("raidxnode: CPU profile written to %s", *pprofOut)
		}()
	}

	disks := make([]*disk.Disk, *nDisks)
	var fileStores []*store.File
	for i := range disks {
		var st store.BlockStore
		if *dir == "" {
			st = store.NewMem(*bs, *blocks)
		} else {
			if err := os.MkdirAll(*dir, 0o755); err != nil {
				log.Fatalf("raidxnode: %v", err)
			}
			img := filepath.Join(*dir, fmt.Sprintf("%s-d%d.img", *name, i))
			fst, err := store.OpenFileFS(store.OS, img, *bs, *blocks, store.FileOptions{Epoch: *epochGen})
			if err != nil {
				log.Fatalf("raidxnode: %v", err)
			}
			if !fst.WasClean() {
				log.Printf("raidxnode %s: %s was not shut down cleanly (device %s); contents may lag the mirrors until resync",
					*name, img, store.UUIDString(fst.DeviceUUID()))
			}
			fileStores = append(fileStores, fst)
			st = fst
		}
		disks[i] = disk.New(nil, fmt.Sprintf("%s-d%d", *name, i), st, disk.DefaultModel())
	}
	node, err := cdd.ListenAndServe(*addr, disks)
	if err != nil {
		log.Fatalf("raidxnode: %v", err)
	}
	log.Printf("raidxnode %s: exporting %d disk(s) x %d blocks x %d B on %s",
		*name, *nDisks, *blocks, *bs, node.Addr())
	if *addrFile != "" {
		// Written atomically so a harness polling the file never reads a
		// half-written address.
		if err := store.WriteFileAtomic(store.OS, *addrFile, []byte(fmt.Sprintf("%s\n", node.Addr()))); err != nil {
			log.Fatalf("raidxnode: -addr-file: %v", err)
		}
	}

	// Epoch fence bootstrap: persist every adopted generation into the
	// images' superblocks, and seed the fence from what they recorded —
	// a restarted node re-enforces the last generation it witnessed
	// without waiting for a coordinator broadcast.
	if len(fileStores) > 0 {
		node.Manager.SetEpochNotify(func(gen uint64) {
			for _, fst := range fileStores {
				if err := fst.SetEpoch(gen); err != nil {
					log.Printf("raidxnode: persist epoch %d: %v", gen, err)
				}
			}
		})
		var seed uint64
		for _, fst := range fileStores {
			if e := fst.Epoch(); e > seed {
				seed = e
			}
		}
		node.Manager.AdoptEpoch(seed)
	}
	if *epochGen > 0 {
		node.Manager.AdoptEpoch(*epochGen)
	}

	tracer := node.Manager.Tracer()
	if *traceSlow != 0 {
		tracer.SetSlowThreshold(*traceSlow)
	}
	if *traceSample > 0 {
		tracer.SetSampleEvery(*traceSample)
	}

	var sched *qos.Scheduler
	if *qosFG > 0 || *qosBG > 0 {
		sched = qos.New(qos.Config{
			ForegroundBytesPerSec: *qosFG,
			BackgroundBytesPerSec: *qosBG,
			Obs:                   node.Manager.Obs(),
		})
		log.Printf("raidxnode %s: QoS admission control: foreground %d B/s, background %d B/s (0 = unlimited)",
			*name, *qosFG, *qosBG)
	}

	var sampler *obs.Sampler
	if *sampleEvery > 0 {
		sampler = obs.NewSampler(node.Manager.Obs(), obs.SamplerConfig{
			Interval: *sampleEvery,
			Capacity: *sampleCap,
		})
		sampler.Start()
		defer sampler.Stop()
	}

	var slo *obs.SLOTracker
	if *sloP99 > 0 {
		var act obs.Actuator
		if sched != nil && *qosBG > 0 {
			act = sched
		}
		slo = obs.NewSLOTracker(obs.SLOConfig{
			Name:              "fg",
			Registry:          node.Manager.Obs(),
			LatencyHist:       node.Manager.Obs().Histogram("mgr.fg_latency"),
			LatencyObjective:  *sloP99,
			ErrorCounter:      node.Manager.Obs().Counter("mgr.fg_errors"),
			OpsCounter:        node.Manager.Obs().Counter("mgr.fg_ops"),
			ErrorBudget:       *sloBudget,
			FastWindow:        *sloFast,
			SlowWindow:        *sloSlow,
			Actuator:          act,
			MinBackgroundRate: *sloMinBG,
		})
		// Evaluate a few times per fast window so a burn is caught and
		// acted on before the window fully elapses.
		evalEvery := *sloFast / 5
		if evalEvery < 100*time.Millisecond {
			evalEvery = 100 * time.Millisecond
		}
		slo.Start(evalEvery)
		defer slo.Stop()
		if act != nil {
			log.Printf("raidxnode %s: SLO tracker: fg p99 objective %v, budget %.2g, feedback onto background QoS rate",
				*name, *sloP99, *sloBudget)
		} else {
			log.Printf("raidxnode %s: SLO tracker: fg p99 objective %v, budget %.2g (observe-only: no -qos-bg-rate)",
				*name, *sloP99, *sloBudget)
		}
	}

	var sup *repair.Supervisor
	var stopRepair func()
	if *repairCluster != "" {
		stateDir := *repairState
		if stateDir == "" && *dir != "" {
			stateDir = filepath.Join(*dir, "repair")
		}
		var err error
		sup, stopRepair, err = startRepair(node, repairOpts{
			cluster:      *repairCluster,
			spares:       *repairSpares,
			budget:       *repairBudget,
			rate:         *repairRate,
			poll:         *repairPoll,
			regionBlocks: *intentRegion,
			array:        *arrayName,
			blockSize:    *bs,
			blocks:       *blocks,
			stateDir:     stateDir,
			sched:        sched,
		})
		if err != nil {
			log.Fatalf("raidxnode: repair supervisor: %v", err)
		}
		log.Printf("raidxnode %s: repair supervisor running over %s (%d spare(s), budget %v)",
			*name, *repairCluster, *repairSpares, *repairBudget)
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := node.Manager.Obs().WriteJSON(w); err != nil {
				log.Printf("raidxnode: /stats: %v", err)
			}
		})
		mux.HandleFunc("/stats/series", func(w http.ResponseWriter, _ *http.Request) {
			if sampler == nil {
				http.Error(w, "time-series sampler disabled (-sample 0)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if err := sampler.WriteJSON(w); err != nil {
				log.Printf("raidxnode: /stats/series: %v", err)
			}
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := node.Manager.Obs().WriteProm(w); err != nil {
				log.Printf("raidxnode: /metrics: %v", err)
			}
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			limit := 10
			if q := r.URL.Query().Get("n"); q != "" {
				if n, err := strconv.Atoi(q); err == nil {
					limit = n
				}
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tracer.Snapshot(limit)); err != nil {
				log.Printf("raidxnode: /trace: %v", err)
			}
		})
		mux.HandleFunc("/repair", func(w http.ResponseWriter, _ *http.Request) {
			if sup == nil {
				http.Error(w, "no repair supervisor on this node (start with -repair-cluster)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			raw, err := sup.StatusJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(raw)
		})
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		srv := &http.Server{Addr: *httpAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("raidxnode %s: serving /stats /metrics /trace /debug/pprof on http://%s", *name, *httpAddr)
			if err := srv.ListenAndServe(); err != nil {
				log.Printf("raidxnode: http: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("raidxnode %s: shutting down", *name)
	// Orderly teardown for crash consistency: stop the supervisor (its
	// checkpoint survives for the next start), drain and close the
	// server, and only THEN sync the file stores and mark their
	// superblocks clean — the clean flag must never get ahead of the last
	// client write. A crash skips all of this; that is exactly what the
	// unclean flag records.
	if stopRepair != nil {
		stopRepair()
	}
	if err := node.Close(); err != nil {
		log.Printf("raidxnode: close: %v", err)
	}
	for _, fst := range fileStores {
		if err := fst.CloseClean(); err != nil {
			log.Printf("raidxnode: close disk image: %v", err)
		}
	}
}

type repairOpts struct {
	cluster      string
	spares       int
	budget       time.Duration
	rate         int64
	poll         time.Duration
	regionBlocks int64
	array        string
	blockSize    int
	blocks       int64
	stateDir     string
	sched        *qos.Scheduler
}

// startRepair mounts the whole cluster as a client, recovers any
// replicated write-intent snapshot, and runs the self-healing
// supervisor over the assembled array. The returned stop function
// halts the supervisor and closes the client connections.
func startRepair(node *cdd.Node, o repairOpts) (*repair.Supervisor, func(), error) {
	cl, err := mount.Connect(strings.Split(o.cluster, ","))
	if err != nil {
		return nil, nil, err
	}
	closeAll := cl.Close
	// The coordinator is the array's one repair writer: it mounts only
	// over a fully reachable membership.
	for i, err := range cl.Errs {
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial %s: %w", cl.Addrs[i], err)
		}
	}
	clients := cl.Clients

	// Layout position: the epoch checkpoint (StateDir/epoch.json) records
	// the generation the array reached and any migration cut short by a
	// crash. With no checkpoint the engine is built at the layout the
	// nodes report, like any other mount; with one, at the checkpointed
	// source epoch — and, for a grow interrupted mid-migration, over a
	// table that already spans the target width (BeginGrow resumes with
	// no new devices).
	var ck *repair.RebalanceCkpt
	if o.stateDir != "" {
		if ck, err = repair.LoadRebalance(store.OS, o.stateDir); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	// The engine grows the intent log to its device table's width, so it
	// is built before the snapshots below are merged in.
	il := intent.NewLog(0, o.blocks, o.regionBlocks)
	copts := core.Options{
		Obs:    node.Manager.Obs(),
		Trace:  node.Manager.Tracer(),
		Intent: il,
	}
	var arr *core.RAIDx
	if ck == nil {
		arr, err = cl.Engine(context.Background(), copts)
	} else {
		growBy := 0
		if !ck.Done && ck.Action == "grow" {
			growBy = ck.Nodes
		}
		if arr, err = cl.EngineAt(ck.Source, growBy, copts); err != nil {
			err = fmt.Errorf("epoch checkpoint: %w", err)
		}
	}
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	// Crash recovery, local first: our own StateDir snapshot is the
	// freshest record of what this host dirtied before it died. Peer
	// copies merge on top (snapshots union, so order only matters for
	// the log line).
	if o.stateDir != "" {
		if err := il.LoadFrom(store.OS, filepath.Join(o.stateDir, "intent.snap")); err != nil {
			log.Printf("raidxnode: stale local intent snapshot ignored: %v", err)
		} else if il.AnyDirty() {
			log.Printf("raidxnode: recovered local intent snapshot from %s", o.stateDir)
		}
	}
	// Then merge whatever intent snapshot the peers kept for us, so
	// regions dirtied before a supervisor restart still resync even when
	// the local state died with the machine.
	recoverCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	for _, c := range clients {
		snap, err := c.GetIntent(recoverCtx, o.array)
		if err != nil || len(snap) == 0 {
			continue
		}
		if err := il.Merge(snap); err != nil {
			log.Printf("raidxnode: stale intent snapshot from %s ignored: %v", c.Addr(), err)
		}
	}
	cancel()
	var sp *raid.Sparer
	if o.spares > 0 {
		spareDevs := make([]raid.Dev, o.spares)
		for i := range spareDevs {
			spareDevs[i] = disk.New(nil, fmt.Sprintf("spare-%d", i),
				store.NewMem(o.blockSize, o.blocks), disk.DefaultModel())
		}
		sp = raid.NewSparer(arr, spareDevs)
	}
	if o.stateDir != "" {
		if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	var pace raid.PaceFunc
	if o.sched != nil {
		// Maintenance traffic yields to foreground serving under the
		// background admission rate.
		pace = o.sched.Pace(qos.Background, "repair")
	}
	sup := repair.New(arr, sp, repair.Config{
		Poll:            o.poll,
		FailureBudget:   o.budget,
		RateBytesPerSec: o.rate,
		Pace:            pace,
		StateDir:        o.stateDir,
		Obs:             node.Manager.Obs(),
		Persist: func(snap []byte) {
			// Replicate the dirty map to every node, best effort; any one
			// surviving copy is enough for recovery.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for _, c := range clients {
				if err := c.PutIntent(ctx, o.array, snap); err != nil {
					log.Printf("raidxnode: intent replication to %s: %v", c.Addr(), err)
				}
			}
		},
	})
	node.Manager.SetRepair(sup)
	coord := &rebalanceCoord{sup: sup, arr: arr, node: node, perNode: cl.PerNode, clients: clients}
	node.Manager.SetRebalance(coord)
	// The mount stamped this host's connections with the mounted
	// generation; enforce it on this node too. The coordinator does not
	// go through mount.Run's stale-epoch recovery: its engine is
	// migration-aware, so a stale rejection means a foreign coordinator
	// moved the layout underneath it — fail typed rather than guess.
	node.Manager.AdoptEpoch(arr.Epoch().Gen())
	// Resume an interrupted migration BEFORE background jobs run: blocks
	// below the checkpointed cursor already live at their target homes,
	// and only the restored migration state routes reads there. The
	// resumed copy re-covers at most the window lost after the last
	// checkpoint — a delta, not a restart.
	if ck != nil && !ck.Done {
		var rerr error
		switch ck.Action {
		case "grow":
			rerr = sup.StartGrow(ck.Nodes, nil, ck.Cursor)
		case "shrink":
			rerr = sup.StartShrink(ck.Nodes, ck.Cursor)
		default:
			rerr = fmt.Errorf("unknown action %q", ck.Action)
		}
		if rerr != nil {
			sup.Stop()
			closeAll()
			return nil, nil, fmt.Errorf("resume epoch checkpoint: %w", rerr)
		}
		log.Printf("raidxnode: resuming %s by %d node(s) at block %d (epoch %d)",
			ck.Action, ck.Nodes, ck.Cursor, arr.Epoch().Gen())
		coord.broadcastEpoch()
		go coord.watchCompletion()
	}
	sup.Start(context.Background())
	return sup, func() { sup.Stop(); coord.closeJoined(); closeAll() }, nil
}

// rebalanceCoord implements cdd.RebalanceController over the repair
// supervisor: raidxctl grow|shrink land here via OpRebalanceCtl, and
// OpLayout serves the full epoch descriptor clients rebuild their
// placement maps from.
type rebalanceCoord struct {
	sup     *repair.Supervisor
	arr     *core.RAIDx
	node    *cdd.Node
	perNode int

	mu       sync.Mutex
	clients  []*cdd.NodeClient // every member node, for the completion broadcast
	joined   []*cdd.NodeClient // clients this coordinator dialed for grows
	watching bool
}

// LayoutJSON serves the coordinator's layout view: stable epoch
// descriptor plus migration progress while one is in flight.
func (g *rebalanceCoord) LayoutJSON() ([]byte, error) {
	ep := g.arr.Epoch()
	desc := ep.Desc()
	li := cdd.LayoutInfo{Gen: ep.Gen(), Desc: &desc}
	if cursor, tgen, active := g.arr.Migrating(); active {
		li.Migrating, li.Cursor, li.TargetGen = true, cursor, tgen
	}
	return json.Marshal(li)
}

// Rebalance starts a membership change. Refusals (a rebalance already
// in flight, recovery busy, bad geometry) come back typed from the
// supervisor and travel to raidxctl as remote errors.
func (g *rebalanceCoord) Rebalance(action string, nodes int, addrs []string) error {
	switch action {
	case "grow":
		if len(addrs) != nodes {
			return fmt.Errorf("grow by %d node(s) needs %d address(es), got %d", nodes, nodes, len(addrs))
		}
		joined := make([]*cdd.NodeClient, 0, nodes)
		fail := func(err error) error {
			for _, c := range joined {
				c.Close()
			}
			return err
		}
		for _, a := range addrs {
			c, err := cdd.Connect(strings.TrimSpace(a))
			if err != nil {
				return fail(fmt.Errorf("dial joining node %s: %w", a, err))
			}
			joined = append(joined, c)
			if c.NumDisks() < g.perNode {
				return fail(fmt.Errorf("joining node %s exports %d disk(s), need %d", a, c.NumDisks(), g.perNode))
			}
		}
		// BeginGrow column order: appended column w + l·add + m is local
		// disk l of joining node m — outer loop locals, inner loop nodes.
		newDevs := make([]raid.Dev, 0, nodes*g.perNode)
		for l := 0; l < g.perNode; l++ {
			for m := 0; m < nodes; m++ {
				newDevs = append(newDevs, joined[m].Dev(l))
			}
		}
		if err := g.sup.StartGrow(nodes, newDevs, 0); err != nil {
			return fail(err)
		}
		g.mu.Lock()
		g.clients = append(g.clients, joined...)
		g.joined = append(g.joined, joined...)
		g.mu.Unlock()
	case "shrink":
		if err := g.sup.StartShrink(nodes, 0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown rebalance action %q (want grow or shrink)", action)
	}
	// Lock every older map out before blocks start moving in earnest:
	// from here on the coordinator is the only sanctioned writer, and any
	// other mount's I/O — placed with the source layout or with none —
	// bounces typed instead of landing at homes the copy will retire.
	g.broadcastEpoch()
	go g.watchCompletion()
	return nil
}

// broadcastEpoch brings every member to the generation the array is
// heading for: the target of the migration in flight, or the stable
// epoch once it has completed. The coordinator's own connections are
// re-stamped first, so its foreground I/O — the one writer that routes
// around the copy cursor — passes the check it is about to raise. A
// member adopts a generation durably (superblock) and never lowers it,
// so one broadcast at migration start guards the whole copy; a member
// that misses it catches up from the first coordinator I/O it serves
// (requests ahead of a node's generation are adopted) and from the
// completion broadcast.
func (g *rebalanceCoord) broadcastEpoch() {
	gen := g.arr.Epoch().Gen()
	if _, tgen, active := g.arr.Migrating(); active {
		gen = tgen
	}
	g.node.Manager.AdoptEpoch(gen)
	g.mu.Lock()
	cs := append([]*cdd.NodeClient(nil), g.clients...)
	g.mu.Unlock()
	for _, c := range cs {
		c.SetArrayEpoch(gen)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range cs {
		if _, err := c.EpochSet(ctx, gen); err != nil {
			log.Printf("raidxnode: epoch %d broadcast to %s: %v", gen, c.Addr(), err)
		}
	}
}

// watchCompletion waits out the in-flight migration and then repeats the
// broadcast for the now-stable epoch. (An errored migration stays active
// and is retried by the supervisor's tick, so the watcher keeps
// waiting.)
func (g *rebalanceCoord) watchCompletion() {
	g.mu.Lock()
	if g.watching {
		g.mu.Unlock()
		return
	}
	g.watching = true
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.watching = false
		g.mu.Unlock()
	}()
	for {
		if _, _, active := g.arr.Migrating(); !active {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if st := g.sup.RebalanceStatus(); st == nil || !st.Done {
		return
	}
	g.broadcastEpoch()
	log.Printf("raidxnode: rebalance complete, epoch %d in force", g.arr.Epoch().Gen())
}

// closeJoined closes the clients the coordinator dialed for grows.
func (g *rebalanceCoord) closeJoined() {
	g.mu.Lock()
	joined := g.joined
	g.joined = nil
	g.mu.Unlock()
	for _, c := range joined {
		c.Close()
	}
}
