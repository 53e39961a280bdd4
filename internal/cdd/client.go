package cdd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/trace"
	"repro/internal/transport"
)

// RetryPolicy governs per-attempt deadlines and retry/backoff for
// remote operations. Retries apply only to idempotent opcodes (block
// reads/writes/flushes, health, stats, info — see retryableOp) and only
// to transport-level failures: a RemoteError proves the server handled
// the request, so it is returned as-is.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per operation (>= 1).
	MaxAttempts int
	// CallTimeout bounds each attempt that moves no payload (see
	// timeout).
	CallTimeout time.Duration
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff, with ±50% jitter.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// ProbeInterval paces the probe loop that re-probes a suspect node
	// until it recovers.
	ProbeInterval time.Duration
}

// minBandwidth (bytes/sec) extends the per-attempt deadline for bulk
// transfers. Without it a fixed CallTimeout spuriously cuts down
// multi-megabyte reads and writes — and an abandoned call tears down the
// shared session, failing innocent concurrent operations.
const minBandwidth = 4 << 20

// timeout bounds an attempt that moves b bytes: CallTimeout +
// b/minBandwidth. Every remote frame is bounded by it — each call
// attempt and health probe from when it is issued, each mirror push from
// when it takes the session's write lock — so no write holds the lock
// without bound. p must have its defaults.
func (p RetryPolicy) timeout(b int) time.Duration {
	return p.CallTimeout + time.Duration(int64(b)*int64(time.Second)/minBandwidth)
}

// DefaultRetryPolicy is the production default: four attempts, 2 s per
// attempt, 10 ms → 500 ms backoff, 250 ms between probes of a suspect.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   4,
		CallTimeout:   2 * time.Second,
		BaseBackoff:   10 * time.Millisecond,
		MaxBackoff:    500 * time.Millisecond,
		ProbeInterval: 250 * time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.CallTimeout <= 0 {
		p.CallTimeout = def.CallTimeout
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = def.ProbeInterval
	}
	return p
}

// retryableOp reports whether an opcode may be re-sent after a
// transport failure. Block reads and whole-block writes are idempotent
// (rewriting the same blocks converges to the same state), as are
// flush, health, stats, info, snapshot fetch, and lock releases.
// OpLock is excluded: a grant whose response was lost would be
// double-recorded by a blind resend.
func retryableOp(op uint8) bool {
	switch op {
	case OpInfo, OpRead, OpWrite, OpFlush, OpHealth, OpStats,
		OpUnlock, OpUnlockAll, OpFail, OpReplace,
		OpObsSnapshot, OpTraceSpans,
		OpIntentPut, OpIntentGet, OpRepairStatus, OpRepairCtl,
		OpCoherence, OpLayout, OpEpochSet:
		// OpRebalanceCtl is excluded like OpLock: a start whose response
		// was lost would double-begin and bounce off ErrRebalanceActive.
		return true
	}
	return false
}

// retryableErr reports whether an error is worth retrying: transport
// breakage, per-attempt deadline expiry (surfacing as
// context.DeadlineExceeded while the caller's own context is still
// live — doCall checks ctx.Err() first), and injected faults are;
// remote application errors, response-size mismatches (the peer
// answered — just wrongly), and caller cancellation are not.
func retryableErr(err error) bool {
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return false
	}
	var rse *transport.RespSizeError
	if errors.As(err, &rse) {
		return false
	}
	if errors.Is(err, transport.ErrClosed) || errors.Is(err, transport.ErrFrameTooLarge) {
		return false
	}
	// Cancellation is the caller's decision, never a transient fault —
	// even when it arrives wrapped by an injected dialer rather than
	// through the ctx.Err() check in doCall.
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// ioScratch is the per-call assembly area of one remote block
// operation: the wire-encoded I/O header and extent table plus reusable
// gather/scatter lists, and a grouped write's table before it is
// encoded. Pooled so the hot path allocates nothing for framing; its
// users drop payload references before returning it.
type ioScratch struct {
	head []byte // I/O header and extent table
	req  [][]byte
	dst  [][]byte
	runs []raid.Run
	exts []Extent
	segs [][]byte
}

var ioScratchPool = sync.Pool{New: func() any { return new(ioScratch) }}

// Options tune a node connection.
type Options struct {
	// Retry is the retry/deadline policy; zero fields take defaults.
	Retry RetryPolicy
	// Dialer overrides the raw connection factory (fault injection).
	Dialer transport.DialFunc
	// DialTimeout bounds each (re)connection attempt.
	DialTimeout time.Duration
	// Obs, when non-nil, receives the connection's metrics: retry and
	// backoff counters, probe outcomes, per-op latency histograms,
	// suspect/re-admission events, and the transport-level counters.
	Obs *obs.Registry
}

// clientMetrics are a node connection's instruments, resolved once at
// Connect; without a registry every field is nil and every update a
// no-op.
type clientMetrics struct {
	retries   *obs.Counter
	backoffNS *obs.Counter
	probeOK   *obs.Counter
	probeFail *obs.Counter
	suspects  *obs.Counter
	readmits  *obs.Counter
	readLat   *obs.Histogram
	writeLat  *obs.Histogram
	flushLat  *obs.Histogram
	events    *obs.EventLog
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		retries:   r.Counter("cdd.retries"),
		backoffNS: r.Counter("cdd.backoff_ns"),
		probeOK:   r.Counter("cdd.probe_ok"),
		probeFail: r.Counter("cdd.probe_fail"),
		suspects:  r.Counter("cdd.suspects"),
		readmits:  r.Counter("cdd.readmits"),
		readLat:   r.Histogram("cdd.read_latency"),
		writeLat:  r.Histogram("cdd.write_latency"),
		flushLat:  r.Histogram("cdd.flush_latency"),
		events:    r.Events(),
	}
}

// NodeClient is the client module of a CDD: it connects to a remote
// storage manager and masquerades its disks as local devices.
type NodeClient struct {
	c      *transport.Client
	addr   string
	info   infoResp
	policy RetryPolicy
	met    clientMetrics
	closed atomic.Bool

	// arrayEpoch is the layout generation the client's placement map was
	// built from (0: the base layout); every block I/O header carries it
	// (see epoch.go). A stale-epoch rejection surfaces typed: recovery
	// means rebuilding the placement map, never re-stamping the request.
	arrayEpoch atomic.Uint64
}

// Connect dials a CDD node with default options and fetches its disk
// inventory.
func Connect(addr string) (*NodeClient, error) {
	return ConnectWith(context.Background(), addr, Options{})
}

// ConnectWith dials a CDD node with explicit fault-tolerance options;
// ctx bounds the initial connection and inventory fetch.
func ConnectWith(ctx context.Context, addr string, opts Options) (*NodeClient, error) {
	c, err := transport.Dial(ctx, addr, transport.DialOptions{
		DialTimeout: opts.DialTimeout,
		Dialer:      opts.Dialer,
		Obs:         opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	n := &NodeClient{c: c, addr: addr, policy: opts.Retry.withDefaults(), met: newClientMetrics(opts.Obs)}
	raw, err := n.call(ctx, OpInfo, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("cdd: info from %s: %w", addr, err)
	}
	info, err := decodeInfo(raw)
	if err != nil {
		c.Close()
		return nil, err
	}
	n.info = info
	return n, nil
}

// call performs one remote operation under the retry policy: a
// per-attempt deadline, exponential backoff with jitter between
// attempts, and retries only for idempotent opcodes on transport-level
// failures.
func (n *NodeClient) call(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	return n.doCall(ctx, op, [][]byte{payload}, nil)
}

// doCall performs one remote operation under the retry policy. req is
// the request's gather list (written vectored, owned by the caller
// throughout). When scatter is non-empty the response is copied into its
// segments — the bulk-read path — and the returned payload is nil. Each
// attempt's deadline scales with the bytes the lists move.
func (n *NodeClient) doCall(ctx context.Context, op uint8, req [][]byte, scatter [][]byte) ([]byte, error) {
	pol := n.policy
	attempts := pol.MaxAttempts
	if !retryableOp(op) {
		attempts = 1
	}
	xfer := 0
	for _, s := range req {
		xfer += len(s)
	}
	for _, s := range scatter {
		xfer += len(s)
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			n.met.retries.Inc()
			n.met.events.Append(obs.EventRetry, n.addr, fmt.Sprintf("op %d attempt %d: %v", op, a+1, lastErr))
			delay := backoffDelay(pol, a)
			n.met.backoffNS.Add(int64(delay))
			if err := sleepCtx(ctx, delay); err != nil {
				return nil, err
			}
		}
		// One span per attempt: retries show up as sibling spans with
		// the attempt number, so backoff gaps are visible in waterfalls.
		// The deadline travels as a plain time.Time, not a
		// context.WithTimeout wrapper, so a timed attempt costs zero heap
		// allocations (DESIGN.md §10).
		actx, ah := trace.Start(ctx, "cdd.attempt", n.addr)
		ah.Val = int64(a + 1)
		resp, err := n.c.Call(actx, op, req, scatter, time.Now().Add(pol.timeout(xfer)))
		ah.End(err)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's own deadline/cancellation — do not mask it
			// with a retries-exhausted wrapper.
			return nil, err
		}
		if !retryableErr(err) {
			// A stale-epoch rejection is deliberately NOT retried here:
			// the physical (disk, block) in this request was computed
			// from the retired epoch's placement map, so re-stamping and
			// resending the same bytes would read the wrong block — or
			// write to a dead home under an accepted generation. The error
			// surfaces to a layer that can rebuild the layout and
			// recompute placements (see epoch.go).
			return nil, err
		}
	}
	if attempts > 1 {
		return nil, fmt.Errorf("cdd: %s: giving up after %d attempts: %w", n.addr, attempts, lastErr)
	}
	return nil, lastErr
}

// backoffDelay is pol.BaseBackoff doubled per retry, capped at
// MaxBackoff, with ±50% jitter to keep retry storms from synchronizing.
func backoffDelay(pol RetryPolicy, attempt int) time.Duration {
	d := pol.BaseBackoff << (attempt - 1)
	if d > pol.MaxBackoff || d <= 0 {
		d = pol.MaxBackoff
	}
	half := int64(d) / 2
	if half > 0 {
		d = time.Duration(half + rand.Int63n(int64(d)))
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Addr reports the remote node's address.
func (n *NodeClient) Addr() string { return n.addr }

// NumDisks reports how many disks the node exports.
func (n *NodeClient) NumDisks() int { return int(n.info.Disks) }

// Policy reports the connection's retry policy.
func (n *NodeClient) Policy() RetryPolicy { return n.policy }

// Transport exposes the underlying connection (peer registration).
func (n *NodeClient) Transport() *transport.Client { return n.c }

// Close tears down the connection and stops the devices' probe loops.
func (n *NodeClient) Close() error {
	n.closed.Store(true)
	return n.c.Close()
}

// Dev returns the i-th remote disk as a raid.Dev. The device starts
// optimistically healthy (the node just answered OpInfo), so the first
// health sweep of an engine's planning loop never blocks on a probe.
func (n *NodeClient) Dev(i int) *RemoteDev {
	return &RemoteDev{
		n:         n,
		disk:      uint32(i),
		bs:        int(n.info.BlockSize),
		blocks:    n.info.Blocks,
		subject:   fmt.Sprintf("%s/d%d", n.addr, i),
		healthTTL: 100 * time.Millisecond,
		healthy:   true,
		checked:   time.Now(),
	}
}

// Devs returns all of the node's disks as raid.Devs.
func (n *NodeClient) Devs() []raid.Dev {
	out := make([]raid.Dev, n.NumDisks())
	for i := range out {
		out[i] = n.Dev(i)
	}
	return out
}

// FailDisk injects a failure into a remote disk (fault drills).
func (n *NodeClient) FailDisk(i int) error {
	_, err := n.call(context.Background(), OpFail, encodeIOHeader(ioHeader{Disk: uint32(i)}, nil))
	return err
}

// ReplaceDisk installs a blank replacement for a remote disk.
func (n *NodeClient) ReplaceDisk(i int) error {
	_, err := n.call(context.Background(), OpReplace, encodeIOHeader(ioHeader{Disk: uint32(i)}, nil))
	return err
}

// DiskStats holds a remote disk's cumulative counters.
type DiskStats struct {
	Reads, Writes, BytesRead, BytesWritten int64
	Healthy                                bool
}

// Stats fetches a remote disk's counters.
func (n *NodeClient) Stats(i int) (DiskStats, error) {
	raw, err := n.call(context.Background(), OpStats, encodeIOHeader(ioHeader{Disk: uint32(i)}, nil))
	if err != nil {
		return DiskStats{}, err
	}
	r, err := decodeStats(raw)
	if err != nil {
		return DiskStats{}, err
	}
	return DiskStats(r), nil
}

// TryLock atomically try-acquires an exclusive range group on this
// node's lock service.
func (n *NodeClient) TryLock(owner string, rs []Range) (bool, error) {
	return n.TryLockMode(context.Background(), owner, Exclusive, rs)
}

// TryLockMode atomically try-acquires a range group in the given mode.
func (n *NodeClient) TryLockMode(ctx context.Context, owner string, mode Mode, rs []Range) (bool, error) {
	resp, err := n.call(ctx, OpLock, encodeLockMsg(lockMsg{Owner: owner, Mode: mode, Ranges: rs}))
	if err != nil {
		return false, err
	}
	return len(resp) == 1 && resp[0] == 1, nil
}

// Lock acquires an exclusive range group, retrying with backoff until
// granted or the context is cancelled.
func (n *NodeClient) Lock(ctx context.Context, owner string, rs []Range) error {
	return n.LockMode(ctx, owner, Exclusive, rs)
}

// LockMode acquires a range group in the given mode, retrying with
// backoff until granted or the context is cancelled. An exclusive
// request blocked by shared holders keeps retrying while the service
// revokes and drains them.
func (n *NodeClient) LockMode(ctx context.Context, owner string, mode Mode, rs []Range) error {
	backoff := time.Millisecond
	for {
		ok, err := n.TryLockMode(ctx, owner, mode, rs)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 32*time.Millisecond {
			backoff *= 2
		}
	}
}

// Beat sends one coherence heartbeat: it renews owner's lease on the
// node's lock service, acks invalidations up to lastSeq, and returns
// the events the client has not processed yet. Sessions drive this
// automatically; it is exported for hand-rolled coherence loops.
func (n *NodeClient) Beat(ctx context.Context, owner string, lastSeq uint64) (BeatResult, error) {
	raw, err := n.call(ctx, OpCoherence, encodeBeat(beatMsg{Owner: owner, LastSeq: lastSeq}))
	if err != nil {
		return BeatResult{}, err
	}
	return decodeBeatResult(raw)
}

// Unlock releases a range group. With Lock it makes a NodeClient an
// fsim.Locker: the node's lock-group table as the cluster's lock home.
func (n *NodeClient) Unlock(ctx context.Context, owner string, rs []Range) error {
	_, err := n.call(ctx, OpUnlock, encodeLockMsg(lockMsg{Owner: owner, Ranges: rs}))
	return err
}

// UnlockAll releases everything held by owner.
func (n *NodeClient) UnlockAll(owner string) error {
	_, err := n.call(context.Background(), OpUnlockAll, encodeLockMsg(lockMsg{Owner: owner}))
	return err
}

// ObsSnapshot fetches the remote node's observability registry:
// per-disk gauges, served-op counters, and the node's event log.
func (n *NodeClient) ObsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	raw, err := n.call(ctx, OpObsSnapshot, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.DecodeSnapshot(raw)
}

// TraceSpans fetches the remote node's recent trace spans — the
// server-side legs (manager handlers, disk ops) of traces this client
// originated, ready to Merge into locally-assembled traces.
func (n *NodeClient) TraceSpans(ctx context.Context) ([]trace.Span, error) {
	raw, err := n.call(ctx, OpTraceSpans, nil)
	if err != nil {
		return nil, err
	}
	var spans []trace.Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("cdd: bad trace spans from %s: %w", n.addr, err)
	}
	return spans, nil
}

// PutIntent replicates a write-intent snapshot to the node under key
// (the array name). Idempotent: re-sending the same snapshot is a
// no-op, so it retries like any other write.
func (n *NodeClient) PutIntent(ctx context.Context, key string, snap []byte) error {
	_, err := n.call(ctx, OpIntentPut, encodeKeyed(key, snap))
	return err
}

// GetIntent fetches the write-intent snapshot the node holds under key
// (nil when it has none) — the crash-recovery read on array startup.
func (n *NodeClient) GetIntent(ctx context.Context, key string) ([]byte, error) {
	raw, err := n.call(ctx, OpIntentGet, encodeKeyed(key, nil))
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, nil
	}
	return raw, nil
}

// RepairStatus fetches the node's repair-supervisor status as JSON.
func (n *NodeClient) RepairStatus(ctx context.Context) ([]byte, error) {
	return n.call(ctx, OpRepairStatus, nil)
}

// RepairPause pauses the node's repair supervisor.
func (n *NodeClient) RepairPause(ctx context.Context) error {
	_, err := n.call(ctx, OpRepairCtl, []byte{repairCtlPause})
	return err
}

// RepairResume resumes the node's repair supervisor.
func (n *NodeClient) RepairResume(ctx context.Context) error {
	_, err := n.call(ctx, OpRepairCtl, []byte{repairCtlResume})
	return err
}

// RemoteDev is a remote disk masquerading as a local device. It
// implements raid.Dev, so array engines can be built transparently over
// any mix of local and remote disks — the essence of the SIOS.
//
// Fault handling: every operation runs under the node's RetryPolicy
// (per-attempt deadline, bounded retries). An operation that still
// fails at the transport level marks the device *suspect* — Healthy()
// reports false without further network traffic while the device's
// probe loop re-probes the node, re-admitting it once it answers again.
type RemoteDev struct {
	n       *NodeClient
	disk    uint32
	bs      int
	blocks  int64
	subject string // event-log identity: "addr/dN"

	healthTTL time.Duration
	hmu       sync.Mutex
	healthy   bool
	checked   time.Time
	suspect   bool // a transport failure is unanswered; probeLoop runs
	// probed is non-nil while the device's one probe loop runs; it
	// closes at the loop's first outcome, releasing the Healthy callers
	// that wait for a fresh answer.
	probed chan struct{}
}

var (
	_ raid.Dev      = (*RemoteDev)(nil)
	_ raid.VecDev   = (*RemoteDev)(nil)
	_ raid.GroupDev = (*RemoteDev)(nil)
)

// BlockSize implements raid.Dev.
func (d *RemoteDev) BlockSize() int { return d.bs }

// NumBlocks implements raid.Dev.
func (d *RemoteDev) NumBlocks() int64 { return d.blocks }

// ReadBlocks implements raid.Dev: a one-extent read whose response is
// copied into buf, allocating nothing.
func (d *RemoteDev) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	return d.blockIO(ctx, OpRead, []Extent{d.run(b, buf)}, [][]byte{buf})
}

// ReadBlocksVec implements raid.VecDev: one remote read of consecutive
// blocks at b whose response is copied into segs.
func (d *RemoteDev) ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	return d.blockIO(ctx, OpRead, []Extent{d.run(b, segs...)}, segs)
}

// WriteBlocks implements raid.Dev: a one-extent write.
func (d *RemoteDev) WriteBlocks(ctx context.Context, b int64, data []byte) error {
	return d.blockIO(ctx, OpWrite, []Extent{d.run(b, data)}, [][]byte{data})
}

// WriteBlocksVec implements raid.VecDev: one remote write of consecutive
// blocks at b gathered from segs.
func (d *RemoteDev) WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	return d.blockIO(ctx, OpWrite, []Extent{d.run(b, segs...)}, segs)
}

// WriteBlocksWith implements raid.GroupDev: one OpWrite whose table holds
// the foreground extent WriteBlocksVec would send and a background extent
// per run of bg, in block order, acknowledged together. A table larger
// than one frame leaves in pieces (split), each of them a call.
func (d *RemoteDev) WriteBlocksWith(ctx context.Context, b int64, segs [][]byte, bg []raid.Run) error {
	for _, r := range bg {
		if len(r.Data) == 0 || len(r.Data)%d.bs != 0 {
			return fmt.Errorf("cdd: background run of %d bytes in blocks of %d", len(r.Data), d.bs)
		}
	}
	// The runs come in the engine's logical order, which a relocated
	// image need not keep; the data run, Data nil, sorts in among them.
	s := ioScratchPool.Get().(*ioScratch)
	s.runs = append(append(s.runs[:0], bg...), raid.Run{Phys: b})
	slices.SortFunc(s.runs, func(x, y raid.Run) int { return cmp.Compare(x.Phys, y.Phys) })
	s.exts, s.segs = s.exts[:0], s.segs[:0]
	for _, r := range s.runs {
		if r.Data == nil {
			s.exts = append(s.exts, d.run(b, segs...))
			s.segs = append(s.segs, segs...)
			continue
		}
		s.exts = append(s.exts, Extent{Block: r.Phys, Blocks: uint32(len(r.Data) / d.bs), BG: true})
		s.segs = append(s.segs, r.Data)
	}
	err := d.blockIO(ctx, OpWrite, s.exts, s.segs)
	clear(s.runs)
	clear(s.segs)
	ioScratchPool.Put(s)
	return err
}

// WriteExtents writes several extents of this disk in one OpWrite: segs
// are the block buffers of all extents in order. The node validates the
// whole table before writing anything; after an error any extent may or
// may not have landed.
func (d *RemoteDev) WriteExtents(ctx context.Context, exts []Extent, segs [][]byte) error {
	return d.blockIO(ctx, OpWrite, exts, segs)
}

// WriteBlocksBackground implements raid.Dev: a one-extent write of a
// background extent, which travels as a notification, so the caller
// does not wait for the remote disk. A later Flush or Call on the same
// connection orders after it. The push may hold the session's write lock
// for an attempt's timeout (RetryPolicy.timeout): past it the push fails
// with context.DeadlineExceeded and drops the session. A push placed with
// a retired layout is dropped by the node instead of landing at a dead
// home; the node counts the drop (mgr.bg_stale_drops) and the writer's
// intent log keeps the block dirty, so resync re-mirrors it.
func (d *RemoteDev) WriteBlocksBackground(ctx context.Context, b int64, data []byte) error {
	e := d.run(b, data)
	e.BG = true
	return d.blockIO(ctx, OpWrite, []Extent{e}, [][]byte{data})
}

// run is the one extent at b that segs fill.
func (d *RemoteDev) run(b int64, segs ...[]byte) Extent {
	n := 0
	for _, sg := range segs {
		n += len(sg)
	}
	return Extent{Block: b, Blocks: uint32(n / d.bs)}
}

var devSpanNames = [opEnd]string{OpRead: "cdd.read", OpWrite: "cdd.write"}

// maxIOFrame bounds one block request — I/O header, extent table and
// blocks, which a read receives in its response — leaving room in the
// frame for the trace extension.
const maxIOFrame = transport.MaxPayload - 64

// blockIO is the one request builder of block I/O. The I/O header and
// extent table are encoded into the pooled scratch and travel as the
// first gather segment; segs — the extents' blocks in table order — are
// never staged: a write's go to the wire after the table (one vectored
// frame), and a read's response is copied into them (DESIGN.md §10). A
// write without a foreground extent goes as a notification. A table
// larger than one frame goes out as several requests (split).
func (d *RemoteDev) blockIO(ctx context.Context, op uint8, exts []Extent, segs [][]byte) error {
	total, blocks, notify := 0, 0, op == OpWrite
	for _, sg := range segs {
		total += len(sg)
	}
	for _, e := range exts {
		blocks += int(e.Blocks)
		notify = notify && e.BG
	}
	if total == 0 || total != blocks*d.bs {
		return fmt.Errorf("cdd: %d bytes for %d blocks of %d bytes", total, blocks, d.bs)
	}
	if ioHeaderLen+len(exts)*extentLen+total > maxIOFrame {
		return d.split(ctx, op, notify, exts, segs)
	}
	return d.request(ctx, op, notify, exts, segs, total)
}

// request sends one block request of total data bytes: a notification
// if notify, else a call.
func (d *RemoteDev) request(ctx context.Context, op uint8, notify bool, exts []Extent, segs [][]byte, total int) (err error) {
	name := devSpanNames[op]
	if notify {
		name = "cdd.bg-write"
	}
	ctx, h := trace.Start(ctx, name, d.subject)
	h.Val = int64(total)
	start := time.Now()
	s := ioScratchPool.Get().(*ioScratch)
	s.head = appendIOHeader(s.head[:0], ioHeader{Disk: d.disk, Count: uint32(len(exts)), Gen: d.n.arrayEpoch.Load()})
	for _, e := range exts {
		s.head = appendExtent(s.head, e)
	}
	s.req = append(s.req[:0], s.head)
	switch {
	case op == OpRead:
		s.dst = append(s.dst[:0], segs...)
		_, err = d.n.doCall(ctx, op, s.req, s.dst)
		d.n.met.readLat.Observe(time.Since(start))
		if err != nil {
			err = d.mapReadErr(err)
		}
	case notify:
		s.req = append(s.req, segs...)
		err = d.n.c.Notify(ctx, op, s.req, d.n.policy.timeout(total))
	default:
		s.req = append(s.req, segs...)
		_, err = d.n.doCall(ctx, op, s.req, nil)
		d.n.met.writeLat.Observe(time.Since(start))
	}
	clear(s.req)
	clear(s.dst)
	ioScratchPool.Put(s)
	h.End(err)
	d.noteOutcome(err)
	return err
}

// split sends a table larger than one frame as consecutive requests of
// at most maxIOFrame each, cutting an extent, and the segment under the
// cut, where a frame fills; every piece of an extent keeps its BG flag.
// A piece is a notification only if the whole table is (notify): one
// holding only the background tail of a grouped table is still a call,
// so the table has landed when split returns. It stops at the first
// failed request; the earlier ones may have landed, as after any failed
// multi-extent write.
func (d *RemoteDev) split(ctx context.Context, op uint8, notify bool, exts []Extent, segs [][]byte) error {
	var part []Extent
	var data [][]byte
	var seg []byte // the unsent tail of the segment being cut
	size, total := ioHeaderLen, 0
	send := func() error {
		err := d.request(ctx, op, notify, part, data, total)
		part, data, size, total = part[:0], data[:0], ioHeaderLen, 0
		return err
	}
	for _, e := range exts {
		for e.Blocks > 0 {
			n := min(int64(e.Blocks), int64((maxIOFrame-size-extentLen)/d.bs))
			if n <= 0 {
				if len(part) == 0 {
					return fmt.Errorf("cdd: a %d-byte block does not fit in a frame", d.bs)
				}
				if err := send(); err != nil {
					return err
				}
				continue
			}
			part = append(part, Extent{Block: e.Block, Blocks: uint32(n), BG: e.BG})
			size += extentLen + int(n)*d.bs
			total += int(n) * d.bs
			for want := int(n) * d.bs; want > 0; {
				if len(seg) == 0 {
					seg, segs = segs[0], segs[1:]
				}
				k := min(want, len(seg))
				data = append(data, seg[:k])
				seg, want = seg[k:], want-k
			}
			e.Block += n
			e.Blocks -= uint32(n)
		}
	}
	return send()
}

// mapReadErr rewrites a response-size mismatch as the short-read
// protocol fault health tracking knows; other errors pass through.
func (d *RemoteDev) mapReadErr(err error) error {
	var rse *transport.RespSizeError
	if errors.As(err, &rse) {
		// A short read is a protocol-level fault from this peer: it must
		// feed health tracking like any other failure, or a node that
		// truncates responses keeps being treated as a good copy.
		return fmt.Errorf("cdd: short read: %d of %d bytes", rse.Got, rse.Want)
	}
	return err
}

// Flush implements raid.Dev.
func (d *RemoteDev) Flush(ctx context.Context) error {
	ctx, h := trace.Start(ctx, "cdd.flush", d.subject)
	start := time.Now()
	_, err := d.n.call(ctx, OpFlush, encodeIOHeader(ioHeader{Disk: d.disk}, nil))
	d.n.met.flushLat.Observe(time.Since(start))
	h.End(err)
	d.noteOutcome(err)
	return err
}

// Healthy implements raid.Dev. The answer is cached briefly (healthTTL)
// to keep engine health sweeps from flooding the network; while the
// device is suspect the cached answer (false) is served without any
// network traffic and the probe loop is the only thing touching the
// peer.
//
// When the cache has merely expired, Healthy serves the stale answer
// immediately and starts the probe loop unless it runs already — the
// engine's serial planning loops never stall on a network round trip,
// and TTL expiry cannot fan out duplicate probes. Only after an explicit
// InvalidateHealth (an administrative demand for a fresh answer) does
// Healthy block, and even then concurrent callers share the one loop's
// first probe.
func (d *RemoteDev) Healthy() bool {
	d.hmu.Lock()
	h := d.healthy
	if d.suspect || (!d.checked.IsZero() && time.Since(d.checked) < d.healthTTL) {
		d.hmu.Unlock()
		return h
	}
	invalidated := d.checked.IsZero()
	ch := d.startProbing()
	d.hmu.Unlock()
	if !invalidated {
		return h
	}
	<-ch
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.healthy
}

// startProbing starts the probe loop unless it runs or the node client
// has closed, and returns the channel that closes at the loop's first
// outcome (at once for a closed client). It requires d.hmu held.
func (d *RemoteDev) startProbing() chan struct{} {
	if d.probed != nil {
		return d.probed
	}
	ch := make(chan struct{})
	if d.n.closed.Load() {
		close(ch) // a closed client's device is not probed
		return ch
	}
	d.probed = ch
	go d.probeLoop(ch)
	return ch
}

// probeLoop is the device's one prober. It probes until the node
// answers, sleeping ProbeInterval before each probe while the device is
// suspect: a failed probe marks it suspect, and the answer — healthy or
// not — refreshes the cache and, for a suspect device, re-admits it to
// the normal cached path. first closes at the loop's first outcome. The
// loop stops, unprobed, once the node client has closed.
func (d *RemoteDev) probeLoop(first chan struct{}) {
	release := func() {
		if first != nil {
			close(first)
			first = nil
		}
	}
	defer release()
	for {
		d.hmu.Lock()
		suspect := d.suspect
		d.hmu.Unlock()
		if suspect {
			time.Sleep(d.n.policy.ProbeInterval)
		}
		if d.n.closed.Load() {
			d.hmu.Lock()
			d.probed = nil
			d.hmu.Unlock()
			return
		}
		h, err := d.probe()
		if err == nil {
			d.n.met.probeOK.Inc()
			d.hmu.Lock()
			d.healthy, d.checked, d.probed = h, time.Now(), nil
			suspect, d.suspect = d.suspect, false
			d.hmu.Unlock()
			if suspect {
				d.n.met.readmits.Inc()
				d.n.met.events.Append(obs.EventReadmit, d.subject, fmt.Sprintf("healthy=%v", h))
			}
			return
		}
		d.n.met.probeFail.Inc()
		d.markSuspect(err)
		release()
	}
}

// probe asks the remote manager whether the disk serves requests (one
// attempt, bounded by the policy's CallTimeout).
func (d *RemoteDev) probe() (bool, error) {
	req := [][]byte{encodeIOHeader(ioHeader{Disk: d.disk}, nil)}
	resp, err := d.n.c.Call(context.Background(), OpHealth, req, nil, time.Now().Add(d.n.policy.timeout(0)))
	if err != nil {
		return false, err
	}
	return len(resp) == 1 && resp[0] == 1, nil
}

// InvalidateHealth drops the cached health state.
func (d *RemoteDev) InvalidateHealth() {
	d.hmu.Lock()
	d.checked = time.Time{}
	d.hmu.Unlock()
}

// noteOutcome updates the cached health from an operation result. A
// remote disk-failed error — identified by its wire error code, not by
// matching message text — marks the device unhealthy immediately (the
// node answered; its disk is gone). A transport-level failure — broken
// connection, timeout, injected fault — marks the device suspect and
// starts the probe loop that re-admits the node when it recovers.
func (d *RemoteDev) noteOutcome(err error) {
	if err == nil {
		return
	}
	// The caller abandoning its own request says nothing about the
	// peer's health: a cancelled read must not mark the device suspect
	// (and from there burn the repair failure budget).
	if errors.Is(err, context.Canceled) {
		return
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		if re.Code == transport.CodeDiskFailed {
			d.hmu.Lock()
			d.healthy = false
			d.checked = time.Now()
			d.hmu.Unlock()
			d.n.met.events.Append(obs.EventDiskFailed, d.subject, re.Msg)
		}
		return
	}
	d.markSuspect(err)
}

// markSuspect records the device as unhealthy and suspect and ensures
// the probe loop runs to re-admit it. cause, when non-nil, is recorded
// in the event log.
func (d *RemoteDev) markSuspect(cause error) {
	d.hmu.Lock()
	was := d.suspect
	d.healthy, d.checked, d.suspect = false, time.Now(), true
	d.startProbing()
	d.hmu.Unlock()
	if !was {
		d.n.met.suspects.Inc()
		detail := ""
		if cause != nil {
			detail = cause.Error()
		}
		d.n.met.events.Append(obs.EventSuspect, d.subject, detail)
	}
}
