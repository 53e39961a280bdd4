package cdd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Manager is the storage-manager module of a CDD: it coordinates the
// use of a node's local disks by remote CDD clients, and hosts a
// replica of the lock-group table. A node that also mounts arrays acts
// as client and manager simultaneously — the "both" state of Section 4.
type Manager struct {
	disks  []*disk.Disk
	locks  *Table
	reg    *obs.Registry
	tracer *trace.Tracer
	met    managerMetrics

	// epochGen is the array-layout epoch generation this node enforces
	// on every block read, write and background write (see epoch.go);
	// raised by OpEpochSet broadcasts and by requests ahead of it, never
	// lowered.
	epochGen atomic.Uint64

	mu    sync.Mutex
	peers []*transport.Client // for lock-table replication
	// intents holds replicated write-intent snapshots keyed by array
	// name: the repair host pushes its dirty map here so it survives a
	// host crash.
	intents   map[string][]byte
	repair    RepairController
	rebalance RebalanceController
	onEpoch   func(gen uint64) // called after AdoptEpoch raises the generation
}

// RepairController is the slice of a repair supervisor the manager can
// drive remotely (raidxctl repair status|pause|resume). Declared here
// rather than importing internal/repair so cdd stays below repair in
// the dependency order.
type RepairController interface {
	StatusJSON() ([]byte, error)
	Pause()
	Resume()
}

// SetRepair attaches the node's repair supervisor, enabling
// OpRepairStatus and OpRepairCtl.
func (m *Manager) SetRepair(rc RepairController) {
	m.mu.Lock()
	m.repair = rc
	m.mu.Unlock()
}

// managerMetrics count the node's served operations: writes counts the
// write requests with a foreground extent, bgWrites the background
// extents. fgOps/fgErrors and fgLat cover only the foreground data path
// (read, flush, a write with a foreground extent) — they are the inputs
// to the node's foreground SLO tracker; latByOp carries one labeled
// histogram per opcode, resolved once so the dispatch path indexes a
// static array.
type managerMetrics struct {
	reads, writes, bgWrites, flushes, probes, failed *obs.Counter
	beats, lockOps                                   *obs.Counter
	fgOps, fgErrors                                  *obs.Counter
	// bgStaleDrops counts background extents rejected for a stale layout
	// generation. A client that sent them as a notification never sees
	// the rejection, so each drop is a silent redundancy loss until
	// resync — the counter keeps it visible to operators.
	bgStaleDrops *obs.Counter
	fgLat        *obs.Histogram
	latByOp      [opEnd]*obs.Histogram
}

// DefaultLeaseTTL is the lock service's grant lease: a client that
// stops heartbeating for this long has its grants auto-released, so a
// dead or partitioned holder cannot wedge its ranges forever.
const DefaultLeaseTTL = 5 * time.Second

// NewManager creates a manager exporting the given local disks. Every
// manager owns an observability registry: per-disk gauges (op counts,
// bytes, sequential hits, queue backlogs) read the disks' own counters,
// so serving a snapshot costs nothing on the I/O path.
func NewManager(disks []*disk.Disk) *Manager {
	reg := obs.NewRegistry()
	m := &Manager{
		disks:   disks,
		locks:   NewTable(),
		reg:     reg,
		tracer:  trace.New(trace.Config{}),
		intents: make(map[string][]byte),
		met: managerMetrics{
			reads:        reg.Counter("mgr.read_ops"),
			writes:       reg.Counter("mgr.write_ops"),
			bgWrites:     reg.Counter("mgr.bg_write_ops"),
			flushes:      reg.Counter("mgr.flush_ops"),
			probes:       reg.Counter("mgr.health_ops"),
			failed:       reg.Counter("mgr.op_errors"),
			beats:        reg.Counter("mgr.beats"),
			lockOps:      reg.Counter("mgr.lock_ops"),
			fgOps:        reg.Counter("mgr.fg_ops"),
			fgErrors:     reg.Counter("mgr.fg_errors"),
			bgStaleDrops: reg.Counter("mgr.bg_stale_drops"),
			fgLat:        reg.Histogram("mgr.fg_latency"),
		},
	}
	latVec := reg.HistogramVec("mgr.op_latency", "op")
	for op, name := range opSpanNames {
		if name != "" {
			m.met.latByOp[op] = latVec.With(strings.TrimPrefix(name, "mgr."))
		}
	}
	m.locks.SetLease(DefaultLeaseTTL, nil)
	reg.RegisterGauge("locks.owners", func() int64 { o, _, _ := m.locks.Stats(); return int64(o) })
	reg.RegisterGauge("locks.ranges", func() int64 { _, r, _ := m.locks.Stats(); return int64(r) })
	reg.RegisterGauge("locks.expired", func() int64 { _, _, e := m.locks.Stats(); return int64(e) })
	reg.RegisterGauge("epoch.gen", func() int64 { return int64(m.EpochGen()) })
	for _, d := range disks {
		d := d
		name := "disk." + d.ID()
		reg.RegisterGauge(name+".reads", func() int64 { r, _, _, _ := d.Stats(); return r })
		reg.RegisterGauge(name+".writes", func() int64 { _, w, _, _ := d.Stats(); return w })
		reg.RegisterGauge(name+".bytes_read", func() int64 { _, _, br, _ := d.Stats(); return br })
		reg.RegisterGauge(name+".bytes_written", func() int64 { _, _, _, bw := d.Stats(); return bw })
		reg.RegisterGauge(name+".seq_hits", func() int64 { return d.SeqHits() })
		reg.RegisterGauge(name+".backlog_us", func() int64 { return int64(d.QueueBacklog().Microseconds()) })
		reg.RegisterGauge(name+".bg_backlog_us", func() int64 { return int64(d.BgQueueBacklog().Microseconds()) })
		reg.RegisterGauge(name+".healthy", func() int64 {
			if d.Healthy() {
				return 1
			}
			return 0
		})
	}
	return m
}

// Obs exposes the manager's observability registry (the /stats source).
func (m *Manager) Obs() *obs.Registry { return m.reg }

// Tracer exposes the manager's span ring (the /trace source). Incoming
// traced requests resume into it; its spans are served over
// OpTraceSpans for cross-node waterfall assembly.
func (m *Manager) Tracer() *trace.Tracer { return m.tracer }

// Locks exposes the node's lock-group table replica.
func (m *Manager) Locks() *Table { return m.locks }

// AddPeer registers a peer CDD connection for lock-table replication.
func (m *Manager) AddPeer(c *transport.Client) {
	m.mu.Lock()
	m.peers = append(m.peers, c)
	m.mu.Unlock()
}

// replicate pushes the current lock table to all peers (best-effort
// notifications, matching the paper's asynchronous replica updates).
// With no peer there is nothing to build: the snapshot grows with the
// table.
func (m *Manager) replicate(ctx context.Context) {
	m.mu.Lock()
	peers := append([]*transport.Client(nil), m.peers...)
	m.mu.Unlock()
	if len(peers) == 0 {
		return
	}
	snap := encodeSnapshot(m.locks.Version(), m.locks.Snapshot())
	for _, p := range peers {
		_ = p.Notify(ctx, OpLockReplica, [][]byte{snap}, DefaultRetryPolicy().timeout(len(snap))) // best effort
	}
}

func (m *Manager) disk(i uint32) (*disk.Disk, error) {
	if int(i) >= len(m.disks) {
		return nil, fmt.Errorf("cdd: disk %d out of range [0,%d): %w", i, len(m.disks), errBadRequest)
	}
	return m.disks[i], nil
}

// errUnknownOp marks requests for opcodes this node does not implement.
var errUnknownOp = errors.New("unknown op")

// errCode classifies a handler error into a wire error code, so clients
// act on the code instead of matching message text.
func errCode(err error) uint8 {
	switch {
	case errors.Is(err, disk.ErrFailed):
		return transport.CodeDiskFailed
	case errors.Is(err, errStaleEpoch):
		return transport.CodeStaleEpoch
	case errors.Is(err, errBadRequest):
		return transport.CodeBadRequest
	case errors.Is(err, errUnknownOp):
		return transport.CodeUnknownOp
	}
	var se *store.SizeError
	var re *store.RangeError
	if errors.As(err, &se) || errors.As(err, &re) {
		return transport.CodeBadRequest
	}
	return transport.CodeGeneric
}

// opSpanNames labels the manager span of each opcode; static strings
// keep span recording allocation-free.
var opSpanNames = [opEnd]string{
	OpInfo:         "mgr.info",
	OpRead:         "mgr.read",
	OpWrite:        "mgr.write",
	OpFlush:        "mgr.flush",
	OpHealth:       "mgr.health",
	OpFail:         "mgr.fail",
	OpReplace:      "mgr.replace",
	OpLock:         "mgr.lock",
	OpUnlock:       "mgr.unlock",
	OpUnlockAll:    "mgr.unlock-all",
	OpLockReplica:  "mgr.lock-replica",
	OpStats:        "mgr.stats",
	OpObsSnapshot:  "mgr.obs-snapshot",
	OpTraceSpans:   "mgr.trace-spans",
	OpIntentPut:    "mgr.intent-put",
	OpIntentGet:    "mgr.intent-get",
	OpRepairStatus: "mgr.repair-status",
	OpRepairCtl:    "mgr.repair-ctl",
	OpCoherence:    "mgr.beat",
	OpLayout:       "mgr.layout",
	OpEpochSet:     "mgr.epoch-set",
	OpRebalanceCtl: "mgr.rebalance-ctl",
}

func opSpanName(op uint8) string {
	if int(op) < len(opSpanNames) && opSpanNames[op] != "" {
		return opSpanNames[op]
	}
	return "mgr.op"
}

// Handle implements transport.Handler: it dispatches the request and
// stamps any error with its wire code. ctx carries the caller's
// resumed trace (when the frame had one), so the per-op manager span
// and the disk spans below it land in the caller's trace.
func (m *Manager) Handle(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	ctx, h := trace.Start(ctx, opSpanName(op), "")
	start := time.Now()
	resp, err := m.handle(ctx, op, payload)
	h.End(err)
	d := time.Since(start)
	// Latency lands in the per-op labeled histogram and, for the
	// foreground data path, the flat SLO input histogram. The trace ID
	// rides along as an exemplar, so a dashboard p99 links to a trace.
	var tid uint64
	if sc, ok := trace.FromContext(ctx); ok {
		tid = uint64(sc.Trace)
	}
	if int(op) < len(m.met.latByOp) {
		m.met.latByOp[op].ObserveTraced(d, tid)
	}
	switch {
	case op == OpRead || op == OpFlush || op == OpWrite && !background(payload):
		m.met.fgOps.Inc()
		m.met.fgLat.ObserveTraced(d, tid)
		if err != nil {
			m.met.fgErrors.Inc()
		}
	}
	if err != nil {
		m.met.failed.Inc()
		return nil, transport.WithCode(errCode(err), err)
	}
	return resp, nil
}

func (m *Manager) handle(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	switch op {
	case OpInfo:
		if len(m.disks) == 0 {
			return nil, errors.New("cdd: node exports no disks")
		}
		return encodeInfo(infoResp{
			Disks:     uint32(len(m.disks)),
			BlockSize: uint32(m.disks[0].BlockSize()),
			Blocks:    m.disks[0].NumBlocks(),
		}), nil

	case OpRead, OpWrite:
		return m.blockIO(ctx, op, payload)

	case OpFlush:
		m.met.flushes.Inc()
		d, err := m.diskOf(payload)
		if err != nil {
			return nil, err
		}
		return nil, d.Flush(ctx)

	case OpHealth:
		m.met.probes.Inc()
		d, err := m.diskOf(payload)
		if err != nil {
			return nil, err
		}
		if d.Healthy() {
			return []byte{1}, nil
		}
		return []byte{0}, nil

	case OpFail:
		d, err := m.diskOf(payload)
		if err != nil {
			return nil, err
		}
		d.Fail()
		return nil, nil

	case OpReplace:
		d, err := m.diskOf(payload)
		if err != nil {
			return nil, err
		}
		return nil, d.Replace()

	case OpLock:
		m.met.lockOps.Inc()
		msg, err := decodeLockMsg(payload)
		if err != nil {
			return nil, err
		}
		if m.locks.Acquire(msg.Owner, msg.Mode, msg.Ranges) {
			m.replicate(ctx)
			return []byte{1}, nil
		}
		return []byte{0}, nil

	case OpCoherence:
		m.met.beats.Inc()
		msg, err := decodeBeat(payload)
		if err != nil {
			return nil, err
		}
		br := m.locks.Beat(msg.Owner, msg.LastSeq)
		if br.Released {
			// The ack released revoked grants; push the new table state.
			m.replicate(ctx)
		}
		return encodeBeatResult(br), nil

	case OpUnlock:
		msg, err := decodeLockMsg(payload)
		if err != nil {
			return nil, err
		}
		m.locks.Release(msg.Owner, msg.Ranges)
		m.replicate(ctx)
		return nil, nil

	case OpUnlockAll:
		msg, err := decodeLockMsg(payload)
		if err != nil {
			return nil, err
		}
		m.locks.ReleaseAll(msg.Owner)
		m.replicate(ctx)
		return nil, nil

	case OpStats:
		d, err := m.diskOf(payload)
		if err != nil {
			return nil, err
		}
		r, w, br, bw := d.Stats()
		return encodeStats(statsResp{
			Reads: r, Writes: w, BytesRead: br, BytesWritten: bw,
			Healthy: d.Healthy(),
		}), nil

	case OpLockReplica:
		version, recs, err := decodeSnapshot(payload)
		if err != nil {
			return nil, err
		}
		m.locks.Install(version, recs)
		return nil, nil

	case OpObsSnapshot:
		return m.reg.MarshalJSON()

	case OpTraceSpans:
		return json.Marshal(m.tracer.Spans())

	case OpIntentPut:
		key, body, err := decodeKeyed(payload)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.intents[key] = append([]byte(nil), body...)
		m.mu.Unlock()
		return nil, nil

	case OpIntentGet:
		key, _, err := decodeKeyed(payload)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		snap := m.intents[key]
		m.mu.Unlock()
		// Copy: responses are recycled to the buffer pool after sending,
		// which would scribble over the stored snapshot.
		return append([]byte(nil), snap...), nil

	case OpRepairStatus:
		m.mu.Lock()
		rc := m.repair
		m.mu.Unlock()
		if rc == nil {
			return nil, errors.New("cdd: no repair supervisor on this node")
		}
		return rc.StatusJSON()

	case OpRepairCtl:
		m.mu.Lock()
		rc := m.repair
		m.mu.Unlock()
		if rc == nil {
			return nil, errors.New("cdd: no repair supervisor on this node")
		}
		if len(payload) != 1 {
			return nil, fmt.Errorf("cdd: bad repair-ctl payload: %w", errBadRequest)
		}
		switch payload[0] {
		case repairCtlPause:
			rc.Pause()
		case repairCtlResume:
			rc.Resume()
		default:
			return nil, fmt.Errorf("cdd: unknown repair-ctl %d: %w", payload[0], errBadRequest)
		}
		return nil, nil

	case OpLayout, OpEpochSet, OpRebalanceCtl:
		return m.handleEpoch(ctx, op, payload)
	}
	return nil, fmt.Errorf("cdd: op %d: %w", op, errUnknownOp)
}

// background reports whether payload is a block op whose table has no
// foreground extent: a write its sender sent as a notification.
func background(payload []byte) bool {
	h, body, err := decodeIOHeader(payload)
	return err == nil && h.Count > 0 && bgExtents(body, h.Count) == int(h.Count)
}

// blockIO serves OpRead and OpWrite: the generation fence, the disk, the
// whole extent table validated, then one disk call per extent in table
// order — a write's straight from the request buffer, a background
// extent's on the disk's background path, a read's into one pooled
// response the server releases once the frame is on the wire
// (RecycleResponses). The first disk error aborts; extents before it have
// moved, as with a torn vectored write, so a client resends every block
// of a failed write.
func (m *Manager) blockIO(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	h, body, err := decodeIOHeader(payload)
	if err != nil {
		return nil, err
	}
	bg := bgExtents(body, h.Count)
	// The one fence: block I/O placed with a layout older than the one
	// this node has adopted is never served.
	if err := m.checkEpoch(h.Gen); err != nil {
		// A notification's sender never sees the rejection; count every
		// dropped mirror write so the redundancy loss is observable.
		m.met.bgStaleDrops.Add(int64(bg))
		return nil, err
	}
	d, err := m.disk(h.Disk)
	if err != nil {
		return nil, err
	}
	bs := d.BlockSize()
	tab, data, n, err := splitExtents(body, h.Count, bs, d.NumBlocks(), op == OpRead)
	if err != nil {
		return nil, err
	}
	switch {
	case op == OpRead:
		m.met.reads.Inc()
	case bg < int(h.Count):
		m.met.writes.Inc()
	}
	m.met.bgWrites.Add(int64(bg))
	var resp []byte
	if op == OpRead {
		resp = bufpool.Get(n)
		data = resp
	}
	for i := 0; i < int(h.Count); i++ {
		e := extentAt(tab, i)
		seg := data[:int(e.Blocks)*bs]
		data = data[len(seg):]
		switch {
		case op == OpRead:
			err = d.ReadBlocks(ctx, e.Block, seg)
		case e.BG:
			err = d.WriteBlocksBackground(ctx, e.Block, seg)
		default:
			err = d.WriteBlocks(ctx, e.Block, seg)
		}
		if err != nil {
			bufpool.Put(resp)
			return nil, err
		}
	}
	return resp, nil
}

// diskOf addresses a per-disk control op: its payload is a bare I/O
// header naming the disk.
func (m *Manager) diskOf(payload []byte) (*disk.Disk, error) {
	h, _, err := decodeIOHeader(payload)
	if err != nil {
		return nil, err
	}
	return m.disk(h.Disk)
}

// Node couples a manager with its transport server.
type Node struct {
	Manager *Manager
	Server  *transport.Server
}

// ListenAndServe starts a CDD node exporting disks on addr
// ("127.0.0.1:0" picks a free port). Responses are recycled to the
// buffer pool after sending — safe because every manager handler
// returns either a fresh encoding or a pooled read buffer, never a
// slice of the request payload.
func ListenAndServe(addr string, disks []*disk.Disk) (*Node, error) {
	m := NewManager(disks)
	s, err := transport.Serve(addr, m.Handle, transport.ServerOptions{
		Tracer:           m.tracer,
		RecycleResponses: true,
	})
	if err != nil {
		return nil, err
	}
	return &Node{Manager: m, Server: s}, nil
}

// Addr reports the node's bound address.
func (n *Node) Addr() string { return n.Server.Addr() }

// Close stops the node.
func (n *Node) Close() error { return n.Server.Close() }
