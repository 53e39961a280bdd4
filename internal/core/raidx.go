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
	"repro/internal/par"
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
	// Intent, when non-nil, is the array's write-intent log: the write
	// path marks a member's physical regions dirty whenever a copy
	// write is skipped (device suspect/failed) or errors out, so a
	// returning device can be delta-resynced (Resync) instead of fully
	// rebuilt. The log must be sized NewIntentLog-style for this
	// array's geometry (len(devs) devices of Layout().DiskBlocks).
	Intent *intent.Log
	// IntentAhead additionally marks every copy location dirty BEFORE
	// its write is issued (md-style write-ahead intent bitmap), not just
	// on skip/error. With the supervisor persisting intent snapshots,
	// the regions a crash might have left torn or unsynced on ANY copy
	// are recorded on durable storage ahead of the data, so a restarted
	// node knows exactly what to resync without trusting the crashed
	// process to have observed its own failure. Marks are cleared by the
	// repair layer's resync (replaying a clean region is idempotent), so
	// over-marking costs a little replay bandwidth, never correctness.
	IntentAhead bool
}

// coreMetrics are the engine's instruments, resolved once at New;
// without a registry every field is nil and every update a no-op.
type coreMetrics struct {
	failoverReads  *obs.Counter
	balancedMirror *obs.Counter
	balancedData   *obs.Counter
	degradedReads  *obs.Counter
	readLat        *obs.Histogram
	writeLat       *obs.Histogram
	events         *obs.EventLog
}

func newCoreMetrics(r *obs.Registry) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		failoverReads:  r.Counter("raidx.failover_reads"),
		balancedMirror: r.Counter("raidx.balanced_read_mirror"),
		balancedData:   r.Counter("raidx.balanced_read_data"),
		degradedReads:  r.Counter("raidx.degraded_reads"),
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
	// colName holds pre-formatted per-column span subjects ("d3"), so
	// hot-path span recording never formats strings. Copy-on-write like
	// the device table: BeginGrow publishes an extended copy.
	colName atomic.Pointer[[]string]
	// flip alternates the preferred copy for balanced reads so that
	// simultaneous readers split between data and image instead of
	// herding onto whichever side momentarily reports less backlog.
	flip atomic.Uint32
	// degradedNotify, when set (raid.DegradedNotifier), is called with
	// the number of blocks each degraded read served through a mirror
	// image; the vol package wires it to a per-volume counter.
	degradedNotify func(blocks int)
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

// setColNames publishes a fresh pre-formatted name table covering n
// columns.
func (a *RAIDx) setColNames(n int) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	a.colName.Store(&names)
}

// col returns the pre-formatted span subject for column i.
func (a *RAIDx) col(i int) string {
	names := *a.colName.Load()
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("d%d", i)
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
// disk's physically contiguous runs, with per-block fallback to mirror
// images for blocks on failed disks. It is the only foreground read
// path, at every layout generation and during a migration.
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
	pl := a.place(es, b, p, false)
	defer pl.Release()
	for i, j := 0, 0; i < len(pl.Data); i = j {
		j = raid.RunEnd(pl.Data, i, false)
		run, segs := pl.Data[i:j], pl.Segs[i:j]
		disk, phys := run[0].Disk, run[0].Phys
		if !v.Readable(disk) {
			// Degraded: fetch each block's image individually — images of
			// one column scatter over many mirror groups.
			for t := range run {
				lb, dst, m := run[t].LB, segs[t], es.mirrorLoc(run[t].LB)
				pl.Fns = append(pl.Fns, func(ctx context.Context) error {
					a.met.degradedReads.Inc()
					if a.degradedNotify != nil {
						a.degradedNotify(1)
					}
					ctx, dh := trace.Start(ctx, "raidx.degraded-read", a.col(m.Disk))
					err := a.readImage(ctx, v, lb, m, dst, nil)
					dh.End(err)
					return err
				})
			}
			continue
		}
		dev := v.Devs[disk]
		if a.opt.BalanceReads && len(run) == 1 {
			// Load-balanced single-block read: alternate the preferred
			// copy, then defer to whichever disk has less queued work.
			if m := es.mirrorLoc(run[0].LB); v.Readable(m.Disk) {
				mdev := v.Devs[m.Disk]
				db, mb := raid.BacklogOf(dev), raid.BacklogOf(mdev)
				if mb < db || (mb == db && a.flip.Add(1)%2 == 0) {
					a.met.balancedMirror.Inc()
					pl.Fns = append(pl.Fns, func(ctx context.Context) error {
						err := mdev.ReadBlocks(ctx, m.Block, segs[0])
						if err == nil || ctx.Err() != nil {
							return err
						}
						// Failover to the data copy.
						a.noteFailover(m.Disk, err)
						fctx, fh := trace.Start(ctx, "raidx.failover", a.col(m.Disk))
						derr := dev.ReadBlocks(fctx, phys, segs[0])
						fh.End(derr)
						if derr == nil {
							return nil
						}
						return err
					})
					continue
				}
				a.met.balancedData.Inc()
			}
		}
		pl.Fns = append(pl.Fns, func(ctx context.Context) (err error) {
			ctx, ch := trace.Start(ctx, "raidx.col-read", a.col(disk))
			ch.Val = int64(len(run) * a.bs)
			defer func() { ch.End(err) }()
			// Scatter the run straight into p — no staging buffer, no
			// copy-out loop.
			rerr := raid.ReadBlocksVec(ctx, dev, phys, segs)
			if rerr == nil || ctx.Err() != nil {
				return rerr
			}
			// Read-failover: the primary errored or timed out mid-run (a
			// flaky/partitioned node, not a known-dead disk). Redirect every
			// block of the run to its mirror image on the orthogonal stripe
			// group; the failed operation has already marked the node
			// suspect. The images rewrite every block of the run, so bytes a
			// partial scatter may have landed in p are overwritten.
			a.noteFailover(disk, rerr)
			fctx, fh := trace.Start(ctx, "raidx.failover", a.col(disk))
			for t := 0; t < len(run) && err == nil; t++ {
				err = a.readImage(fctx, v, run[t].LB, es.mirrorLoc(run[t].LB), segs[t], rerr)
			}
			fh.End(err)
			return err
		})
	}
	return par.Do(ctx, pl.Fns...)
}

// noteFailover records a read redirected from a failing primary copy on
// column col.
func (a *RAIDx) noteFailover(col int, cause error) {
	a.met.failoverReads.Inc()
	a.met.events.Append(obs.EventFailover, fmt.Sprintf("raidx/d%d", col), cause.Error())
}

// readImage serves block lb from its mirror image at m. cause, when
// non-nil, is the error that failed the primary read; a block whose
// image is also unavailable reports both.
func (a *RAIDx) readImage(ctx context.Context, v *raid.MemberView, lb int64, m layout.Loc, dst []byte, cause error) error {
	if !v.Readable(m.Disk) {
		if cause != nil {
			return fmt.Errorf("core: block %d primary failed (%v) and image unavailable: %w", lb, cause, raid.ErrDataLoss)
		}
		return fmt.Errorf("core: block %d and its image both unavailable: %w", lb, raid.ErrDataLoss)
	}
	err := v.Devs[m.Disk].ReadBlocks(ctx, m.Block, dst)
	if err != nil && cause != nil {
		return fmt.Errorf("core: block %d primary failed (%v), image read failed: %w", lb, cause, err)
	}
	return err
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
	pl := a.place(es, b, p, true)
	defer pl.Release()
	for _, d := range pl.Data {
		if !v.Devs[d.Disk].Healthy() && !v.Devs[pl.Img[d.LB-b].Disk].Healthy() {
			return fmt.Errorf("core: block %d has no healthy copy location: %w", d.LB, raid.ErrDataLoss)
		}
	}
	// Foreground data writes, one gathered transfer per run.
	for i, j := 0, 0; i < len(pl.Data); i = j {
		j = raid.RunEnd(pl.Data, i, false)
		lo, segs, dev := pl.Data[i], pl.Segs[i:j], v.Devs[pl.Data[i].Disk]
		pl.Spans = append(pl.Spans, raid.Span{Dev: lo.Disk, Lo: lo.Phys, Hi: lo.Phys + int64(j-i)})
		// IntentAhead marks the region before it is in flight, so a crash
		// treats it as possibly torn until a resync confirms it. A failed
		// disk is skipped — the image carries the data — and the mark lets
		// a delta resync replay just these blocks when the device returns.
		healthy := dev.Healthy()
		if a.opt.IntentAhead || !healthy {
			a.mark(lo, j-i)
		}
		if !healthy {
			continue
		}
		pl.Fns = append(pl.Fns, func(ctx context.Context) (err error) {
			ctx, ch := trace.Start(ctx, "raidx.col-write", a.col(lo.Disk))
			ch.Val = int64(len(segs) * a.bs)
			defer func() { ch.End(err) }()
			// Gather the run from p — no staging buffer, no copy-in loop.
			if err = raid.WriteBlocksVec(ctx, dev, lo.Phys, segs); err != nil {
				// Partial landing, cancelled sibling, device died mid-write.
				a.mark(lo, len(segs))
			}
			return err
		})
	}
	// Image writes, in logical order. A deferred write needs one flat
	// piece of p, so a run ends where the blocks stop being consecutive:
	// one gathered write per mirror group at the base layout (or per block
	// under the ScatterMirror ablation). Deferred images travel as
	// background notifications, and a remote node's epoch fence may drop a
	// stale one with no error coming back — once any node can be fenced,
	// mark the intent up front so the divergence stays visible for delta
	// resync instead of being a silent redundancy loss.
	ahead := a.opt.IntentAhead || (!a.opt.ForegroundMirror && es.fenced())
	for i, j := 0, 0; i < len(pl.Img); i = j {
		if j = i + 1; !a.opt.ScatterMirror {
			j = raid.RunEnd(pl.Img, i, true)
		}
		lo, count, dev := pl.Img[i], j-i, v.Devs[pl.Img[i].Disk]
		pl.Spans = append(pl.Spans, raid.Span{Dev: lo.Disk, Lo: lo.Phys, Hi: lo.Phys + int64(count)})
		healthy := dev.Healthy()
		if ahead || !healthy {
			a.mark(lo, count)
		}
		if !healthy {
			continue // the data copy carries the blocks
		}
		pl.Fns = append(pl.Fns, func(ctx context.Context) (err error) {
			ctx, mh := trace.Start(ctx, "raidx.mirror-write", a.col(lo.Disk))
			mh.Val = int64(count * a.bs)
			defer func() { mh.End(err) }()
			chunk := p[(lo.LB-b)*int64(a.bs) : (lo.LB-b+int64(count))*int64(a.bs)]
			if a.opt.ForegroundMirror {
				err = dev.WriteBlocks(ctx, lo.Phys, chunk)
			} else {
				err = dev.WriteBlocksBackground(ctx, lo.Phys, chunk)
			}
			if err != nil {
				a.mark(lo, count) // the image may be missing or torn
			}
			return err
		})
	}
	// In the members' window no restore chunk reads the other copy of a
	// run while the run is in flight.
	defer a.mem.Window().Exit(a.mem.Window().Enter(ctx, pl.Spans...))
	return par.Do(ctx, pl.Fns...)
}

// mark logs count blocks starting at e as a copy region whose on-disk
// state is or may become unknown, so repair replays it from the other
// copy.
func (a *RAIDx) mark(e raid.Ext, count int) { a.mem.Intent().MarkRange(e.Disk, e.Phys, int64(count)) }

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

// SetDegradedNotify implements raid.DegradedNotifier: fn is called
// with the number of blocks each degraded read served through mirror
// images. Set it before the array takes I/O; fn must be safe for
// concurrent calls.
func (a *RAIDx) SetDegradedNotify(fn func(blocks int)) { a.degradedNotify = fn }

// Verify implements raid.Verifier through raid.Verify: every block of
// every member must equal its other copy. It refuses during a migration.
func (a *RAIDx) Verify(ctx context.Context) error {
	_, err := raid.Verify(ctx, a)
	return err
}
