// Package core implements RAID-x, the paper's contribution: a
// distributed disk array built on orthogonal striping and mirroring
// (OSM).
//
// Data blocks stripe across the data halves of all n·k disks exactly
// like RAID-0, so reads and large writes enjoy full-stripe bandwidth.
// Redundancy comes from mirror images, but unlike RAID-10 or chained
// declustering the images are not written block-by-block alongside the
// data: the images of n-1 consecutive blocks form a *mirror group* that
// is gathered into one long contiguous write on the single disk (on the
// single node) that holds none of those blocks, and that write is
// performed in the background by the cooperative disk drivers. Two
// consequences give RAID-x its measured advantage:
//
//   - the small-write problem of RAID-5 disappears — a small write is
//     one foreground data write plus one deferred image write, with no
//     read-modify-write of parity;
//   - mirroring overhead hides behind foreground traffic — the client
//     sees RAID-0 write latency while the array converges to full
//     redundancy asynchronously (Flush forces convergence).
//
// Orthogonality (no block shares a node with its image) preserves
// single-disk — and in an n-by-k array, per-mirror-group — fault
// tolerance: reads fall back to images, writes continue on the
// surviving copy, and Rebuild regenerates a replaced disk from the
// orthogonal copies.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/trace"
)

// Options tune the engine; the zero value is the paper's design. The
// other settings exist for the ablation benchmarks in DESIGN.md.
type Options struct {
	// ForegroundMirror writes mirror images synchronously, ablating
	// the "hide mirroring overhead in the background" design point.
	ForegroundMirror bool
	// ScatterMirror writes each image block individually instead of
	// gathering a mirror group into one long write, ablating the
	// clustered-image design point.
	ScatterMirror bool
	// BalanceReads lets single-block reads go to the image copy when
	// the data disk's queue is longer — the I/O load balancing the
	// paper's Section 7 lists as the Trojans project's next step.
	BalanceReads bool
	// Obs, when non-nil, receives the engine's metrics: failover and
	// balanced-read counters, per-op latency histograms, queue-depth
	// gauges, and swap/rebuild/degraded-mount events.
	Obs *obs.Registry
	// Trace, when non-nil, records per-request spans: every array op
	// starts a trace that follows the request down through the striped
	// fan-out, CDD calls, and (over the wire) remote disk ops.
	Trace *trace.Tracer
	// Intent, when non-nil, is the array's write-intent log, the one the
	// repair supervisor persists: the write path marks a member's
	// physical regions missed whenever a copy write is skipped (device
	// suspect/failed) or errors out, reads and repairs route around them,
	// and a returning device is delta-resynced (Resync) instead of fully
	// rebuilt. The log must be sized NewIntentLog-style for this array's
	// geometry (len(devs) devices of Layout().DiskBlocks). Nil keeps a
	// private log, which does all of that but outlives no process.
	Intent *intent.Log
	// IntentAhead additionally marks every copy location ahead BEFORE
	// its write is issued (md-style write-ahead intent bitmap). With the
	// supervisor persisting intent snapshots, the regions a crash might
	// have left torn or unsynced on ANY copy are recorded on durable
	// storage ahead of the data, so a restarted node knows exactly what
	// to resync without trusting the crashed process to have observed
	// its own failure: a recovered snapshot's marks all load as missed.
	// In the live process ahead marks route no read and start no resync,
	// and the repair supervisor ages them out once persisted.
	IntentAhead bool
}

// coreMetrics are the engine's instruments, resolved once at New;
// without a registry every field is nil and every update a no-op.
type coreMetrics struct {
	balancedMirror *obs.Counter
	balancedData   *obs.Counter
	readLat        *obs.Histogram
	writeLat       *obs.Histogram
	events         *obs.EventLog
}

func newCoreMetrics(r *obs.Registry) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		balancedMirror: r.Counter("raidx.balanced_read_mirror"),
		balancedData:   r.Counter("raidx.balanced_read_data"),
		readLat:        r.Histogram("raidx.read_latency"),
		writeLat:       r.Histogram("raidx.write_latency"),
		events:         r.Events(),
	}
}

// RAIDx is the OSM array engine. It satisfies raid.Array,
// raid.Verifier, and — repaired by the policy-independent loop in
// internal/raid — raid.Restorer and raid.DevSwapper.
type RAIDx struct {
	// mem is the copy-on-write member table: operations load it once at
	// entry and work on that immutable snapshot, while SwapDev, a grow and
	// a finished rebuild install a fresh copy. A hot-swap during a read
	// storm is therefore race-free — in-flight operations finish against
	// the view they started with, and the next operation sees the spare.
	mem *raid.Members
	// epoch is the copy-on-write layout view (see epochState): the one
	// answer to "where is block b" for reads, writes and repair at every
	// generation. Grows and shrinks publish override generations here,
	// and an in-flight migration carries both layouts plus its cursor.
	epoch atomic.Pointer[epochState]
	// win is the logical-block window: writes enter it before loading
	// the view, a migration claims its copy windows in it.
	win    raid.Window
	lay    layout.OSM
	bs     int
	opt    Options
	met    coreMetrics
	tracer *trace.Tracer
	// pick is balance under BalanceReads, else nil; flip alternates its
	// choice on a tie.
	pick func(v *raid.MemberView, data, img raid.Ext) bool
	flip atomic.Uint32
}

// New builds a RAID-x array over an n-by-k grid of devices: devs[j] is
// global disk j, attached to node j mod nodes (the paper's Figure 3
// arrangement). len(devs) must equal nodes × disksPerNode. It is
// NewAtEpoch at generation zero of the geometry the devices allow.
func New(devs []raid.Dev, nodes, disksPerNode int, opt Options) (*RAIDx, error) {
	if len(devs) != nodes*disksPerNode {
		return nil, fmt.Errorf("core: %d devices for a %dx%d array", len(devs), nodes, disksPerNode)
	}
	_, per, err := raid.CheckDevs(devs, 1)
	if err != nil {
		return nil, err
	}
	per -= per % 2 // half data, half mirror
	if per/2 < int64(nodes-1) {
		return nil, fmt.Errorf("core: disks too small (%d blocks) for mirror groups of %d", per, nodes-1)
	}
	return NewAtEpoch(devs, layout.NewEpoch(layout.NewOSM(nodes, disksPerNode, per)), opt)
}

// finishInit registers the obs gauges and flags a degraded mount.
// Retired or spare slots in devs may be nil.
func (a *RAIDx) finishInit(devs []raid.Dev) {
	if a.opt.Obs != nil {
		a.opt.Obs.RegisterGauge("raidx.backlog_us", func() int64 {
			var sum time.Duration
			for _, d := range a.Devices() {
				if d != nil {
					sum += raid.BacklogOf(d)
				}
			}
			return int64(sum / time.Microsecond)
		})
		a.opt.Obs.RegisterGauge("raidx.bg_backlog_us", func() int64 {
			var sum time.Duration
			for _, d := range a.Devices() {
				if d != nil {
					sum += raid.BgBacklogOf(d)
				}
			}
			return int64(sum / time.Microsecond)
		})
	}
	// A degraded mount — building the array over members that are
	// already unhealthy — is a state worth flagging on the event log.
	down := 0
	for _, d := range devs {
		if d != nil && !d.Healthy() {
			down++
		}
	}
	if down > 0 {
		a.met.events.Append(obs.EventDegradedMount, "raidx",
			fmt.Sprintf("%d of %d devices unhealthy at mount", down, len(devs)))
	}
}

// Devices returns the current device-table snapshot. The slice is the
// engine's own copy-on-write table: treat it as read-only.
func (a *RAIDx) Devices() []raid.Dev { return a.mem.Load().Devs }

// Members implements raid.Restorer: the member table, which also holds
// the array's write-intent log.
func (a *RAIDx) Members() *raid.Members { return a.mem }

// Layout exposes the OSM address arithmetic (used by the checkpointing
// module and the layout-printing tool).
func (a *RAIDx) Layout() layout.OSM { return a.lay }

// SwapDev implements raid.DevSwapper: it replaces member idx (typically
// a failed disk) with a hot spare of identical geometry and returns the
// previous device. The new device is blank until Rebuild runs.
func (a *RAIDx) SwapDev(idx int, dev raid.Dev) (raid.Dev, error) { return a.mem.Swap(idx, dev) }

// Tracer exposes the engine's tracer (nil when tracing is off).
func (a *RAIDx) Tracer() *trace.Tracer { return a.tracer }

// Name implements raid.Array.
func (a *RAIDx) Name() string { return "raidx" }

// BlockSize implements raid.Array.
func (a *RAIDx) BlockSize() int { return a.bs }

// Blocks implements raid.Array.
func (a *RAIDx) Blocks() int64 { return a.lay.DataBlocks() }

// ReadBlocks implements raid.Array: a parallel RAID-0-style read of each
// disk's physically contiguous runs; a block on a failed disk, or on one
// whose read errs, is read from its mirror image instead. It is the only
// foreground read path, at every layout generation and during a
// migration.
func (a *RAIDx) ReadBlocks(ctx context.Context, b int64, p []byte) (err error) {
	if _, err := raid.CheckRange(a, b, p); err != nil {
		return err
	}
	ctx, root := a.tracer.StartRoot(ctx, "raidx.read", "raidx")
	root.Val = int64(len(p))
	defer func() { root.End(err) }()
	start := time.Now()
	defer func() { a.met.readLat.Observe(time.Since(start)) }()
	es, v := a.epoch.Load(), a.mem.Load()
	data, img := a.place(es, b, p)
	defer data.Release()
	defer img.Release()
	// Images of one column scatter over many mirror groups: a block falls
	// back to its own image.
	return a.mem.ReadRuns(ctx, v, data, img, raid.Single, a.pick)
}

// balance is the BalanceReads choice for a single-block read: the image
// when its disk has less queued work, alternating on a tie so that
// simultaneous readers split between the copies.
func (a *RAIDx) balance(v *raid.MemberView, data, img raid.Ext) bool {
	db, mb := raid.BacklogOf(v.Devs[data.Disk]), raid.BacklogOf(v.Devs[img.Disk])
	if mb < db || (mb == db && a.flip.Add(1)%2 == 0) {
		a.met.balancedMirror.Inc()
		return true
	}
	a.met.balancedData.Inc()
	return false
}

// WriteBlocks implements raid.Array: data blocks stripe to all disks in
// the foreground, one gathered transfer per physically contiguous run;
// the images go out as one write per run of consecutive blocks — at the
// base layout, the covered portion of each mirror group on its single
// mirror disk — in the background. It is the only write path, at every
// layout generation and during a migration.
func (a *RAIDx) WriteBlocks(ctx context.Context, b int64, p []byte) (err error) {
	n, err := raid.CheckRange(a, b, p)
	if err != nil {
		return err
	}
	ctx, root := a.tracer.StartRoot(ctx, "raidx.write", "raidx")
	root.Val = int64(len(p))
	defer func() { root.End(err) }()
	start := time.Now()
	defer func() { a.met.writeLat.Observe(time.Since(start)) }()
	// Entered, the range is out of every copy window until this write
	// lands, so the view loaded next places it where it lives throughout.
	defer a.win.Exit(a.win.Enter(ctx, raid.Span{Lo: b, Hi: b + int64(n)}))
	es, v := a.epoch.Load(), a.mem.Load()
	data, img := a.place(es, b, p)
	defer data.Release()
	defer img.Release()
	// An image write needs one flat piece of p: one per mirror group at the
	// base layout, or per block under the ScatterMirror ablation. Deferred
	// images travel as background notifications; while a migration is in
	// flight a node's epoch fence may drop a stale one without a word, so
	// mark those copies missed up front, one mark per run: reads and
	// repairs take the data copy until a resync makes the images whole.
	how, imgHow := raid.Issue(0), raid.Flat
	if a.opt.IntentAhead {
		how, imgHow = raid.MarkAhead, raid.Flat|raid.MarkAhead
	}
	if a.opt.ScatterMirror {
		imgHow |= raid.Single
	}
	if !a.opt.ForegroundMirror {
		imgHow |= raid.Deferred
		for lb, k := b, int64(1); es.next != nil && lb < b+int64(n); lb, k = lb+k, 1 {
			m := es.mirrorLoc(lb)
			for ; lb+k < b+int64(n) && es.mirrorLoc(lb+k) == (layout.Loc{Disk: m.Disk, Block: m.Block + k}); k++ {
			}
			a.mem.Intent().MarkRange(m.Disk, m.Block, k)
		}
	}
	return a.mem.WriteRuns(ctx, v, data, img, how, imgHow)
}

// Flush implements raid.Array: waits for all deferred image writes, so
// the array is fully redundant on return.
func (a *RAIDx) Flush(ctx context.Context) (err error) {
	ctx, root := a.tracer.StartRoot(ctx, "raidx.flush", "raidx")
	defer func() { root.End(err) }()
	return raid.FlushAll(ctx, a.Devices())
}

// Rebuild implements raid.Rebuilder: the replaced disk's data half is
// recovered from images on other nodes; its mirror half is regenerated
// from the corresponding data blocks.
func (a *RAIDx) Rebuild(ctx context.Context, idx int) error {
	return raid.RebuildFrom(ctx, a, idx, nil, nil)
}

// SetDegradedNotify implements raid.DegradedNotifier: fn hears of the
// blocks each degraded read served through mirror images.
func (a *RAIDx) SetDegradedNotify(fn func(blocks int)) { a.mem.SetDegradedNotify(fn) }

// Verify implements raid.Verifier through raid.Verify: every block of
// every member must equal its other copy. It refuses during a migration.
func (a *RAIDx) Verify(ctx context.Context) error {
	_, err := raid.Verify(ctx, a)
	return err
}
