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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/parity"
	"repro/internal/raid"
	"repro/internal/trace"
)

// segPool recycles the scatter/gather lists the hot read and write paths
// build per column run. Lists are cleared before pooling so a pooled
// list never pins caller buffers.
var segPool = sync.Pool{New: func() any { return new([][]byte) }}

// colSegs builds the gather list addressing the blocks of one column run
// inside p: one segment per logical block first, first+width, ... The
// segments alias p — no bytes are copied; vector-aware devices carry
// them to the wire as-is, and raid.ReadBlocksVec/WriteBlocksVec coalesce
// through one pooled buffer for devices that need a flat transfer.
func (a *RAIDx) colSegs(b, first int64, count int, p []byte) *[][]byte {
	width := int64(a.lay.TotalDisks())
	sp := segPool.Get().(*[][]byte)
	segs := (*sp)[:0]
	for t := 0; t < count; t++ {
		lb := first + int64(t)*width
		segs = append(segs, p[(lb-b)*int64(a.bs):(lb-b+1)*int64(a.bs)])
	}
	*sp = segs
	return sp
}

func putSegs(sp *[][]byte) {
	clear(*sp)
	*sp = (*sp)[:0]
	segPool.Put(sp)
}

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
// raid.Rebuilder, and raid.Verifier.
type RAIDx struct {
	// table is the copy-on-write device table: readers load the current
	// slice once per operation and work on that immutable snapshot,
	// while SwapDev installs a fresh copy under swapMu. A hot-swap
	// during a read storm is therefore race-free — in-flight operations
	// finish against the table they started with, and the next
	// operation sees the spare.
	table  atomic.Pointer[[]raid.Dev]
	swapMu sync.Mutex
	// epoch is the copy-on-write layout view (see epochState). The zero
	// generation delegates to lay's pure arithmetic; grows and shrinks
	// publish override generations here, and an in-flight migration
	// carries both layouts plus its cursor.
	epoch atomic.Pointer[epochState]
	// ioGate closes the migration-start race: writes hold it shared for
	// their duration, Begin{Grow,Shrink} takes it exclusively for the
	// instant it publishes the migrating view, so no write that placed
	// blocks under the pre-migration view is still in flight when the
	// copier starts.
	ioGate sync.RWMutex
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
	// intLog is the optional write-intent log (nil: marks are no-ops).
	intLog *intent.Log
	// blankCols is a bitmask of columns whose device answers health
	// probes but holds no trustworthy content: a freshly swapped-in
	// spare is blank until its rebuild completes, so reads of its
	// blocks must route through the mirror images even though the
	// device itself is "up". Writes still land on it — they only make
	// the rebuild's job smaller. Operations load the mask once at
	// entry, like the device table, so one operation's copy choices
	// stay consistent while a rebuild finishes concurrently. Columns
	// >= 64 are never flagged (such arrays keep health-only routing).
	blankCols atomic.Uint64
	// rebuildDone/rebuildTotal expose background-repair progress (in
	// physical blocks of the device under repair) through obs gauges.
	rebuildDone, rebuildTotal atomic.Int64
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
	_, per, err := checkDevs(devs)
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
			for _, d := range a.devices() {
				if d != nil {
					sum += raid.BacklogOf(d)
				}
			}
			return int64(sum / time.Microsecond)
		})
		a.opt.Obs.RegisterGauge("raidx.bg_backlog_us", func() int64 {
			var sum time.Duration
			for _, d := range a.devices() {
				if d != nil {
					sum += raid.BgBacklogOf(d)
				}
			}
			return int64(sum / time.Microsecond)
		})
		a.opt.Obs.RegisterGauge("raidx.rebuild_done_blocks", a.rebuildDone.Load)
		a.opt.Obs.RegisterGauge("raidx.rebuild_total_blocks", a.rebuildTotal.Load)
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

func checkDevs(devs []raid.Dev) (int, int64, error) {
	bs := devs[0].BlockSize()
	per := devs[0].NumBlocks()
	for i, d := range devs {
		if d.BlockSize() != bs {
			return 0, 0, fmt.Errorf("core: device %d block size %d != %d", i, d.BlockSize(), bs)
		}
		if d.NumBlocks() < per {
			per = d.NumBlocks()
		}
	}
	return bs, per, nil
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

// readable reports whether column col may serve reads under the given
// blank-column mask: the device must answer and must not be a blank
// spare whose rebuild has not completed.
func readable(devs []raid.Dev, blank uint64, col int) bool {
	return (col >= 64 || blank&(1<<uint(col)) == 0) && devs[col] != nil && devs[col].Healthy()
}

// setBlank marks or clears column col in the blank mask.
func (a *RAIDx) setBlank(col int, blank bool) {
	if col >= 64 {
		return
	}
	for {
		old := a.blankCols.Load()
		next := old &^ (1 << uint(col))
		if blank {
			next = old | 1<<uint(col)
		}
		if a.blankCols.CompareAndSwap(old, next) {
			return
		}
	}
}

// devices returns the current device table snapshot. Operations load it
// once at entry and pass it down, so a concurrent SwapDev cannot change
// the set of devices an operation addresses mid-flight.
func (a *RAIDx) devices() []raid.Dev { return *a.table.Load() }

// Devices returns the current device-table snapshot. The slice is the
// engine's own copy-on-write table: treat it as read-only. The repair
// supervisor polls it for member health.
func (a *RAIDx) Devices() []raid.Dev { return a.devices() }

// Intent exposes the array's write-intent log (nil when not configured).
func (a *RAIDx) Intent() *intent.Log { return a.intLog }

// Layout exposes the OSM address arithmetic (used by the checkpointing
// module and the layout-printing tool).
func (a *RAIDx) Layout() layout.OSM { return a.lay }

// SwapDev implements raid.DevSwapper: it replaces member idx (typically
// a failed disk) with a hot spare of identical geometry and returns the
// previous device. The new device is blank until Rebuild runs.
//
// The swap installs a fresh copy of the device table, so operations
// already in flight finish against the old table while everything
// started afterwards sees the spare; concurrent swaps serialize.
func (a *RAIDx) SwapDev(idx int, dev raid.Dev) (raid.Dev, error) {
	a.swapMu.Lock()
	defer a.swapMu.Unlock()
	cur := a.devices()
	if idx < 0 || idx >= len(cur) {
		return nil, fmt.Errorf("core: swap of device %d out of range", idx)
	}
	if dev.BlockSize() != a.bs || dev.NumBlocks() < a.lay.DiskBlocks {
		return nil, fmt.Errorf("core: spare geometry %dx%d does not match %dx%d",
			dev.BlockSize(), dev.NumBlocks(), a.bs, a.lay.DiskBlocks)
	}
	next := append([]raid.Dev(nil), cur...)
	old := next[idx]
	next[idx] = dev
	// Flag the column blank BEFORE publishing the table: no reader may
	// ever observe the spare as a valid read source before its rebuild.
	a.setBlank(idx, true)
	a.table.Store(&next)
	a.met.events.Append(obs.EventSwap, fmt.Sprintf("raidx/d%d", idx), "hot spare installed")
	return old, nil
}

// Tracer exposes the engine's tracer (nil when tracing is off).
func (a *RAIDx) Tracer() *trace.Tracer { return a.tracer }

// Name implements raid.Array.
func (a *RAIDx) Name() string { return "raidx" }

// BlockSize implements raid.Array.
func (a *RAIDx) BlockSize() int { return a.bs }

// Blocks implements raid.Array.
func (a *RAIDx) Blocks() int64 { return a.lay.DataBlocks() }

// ReadBlocks implements raid.Array: a parallel RAID-0-style read over
// the data halves, with per-block fallback to mirror images for blocks
// on failed disks.
func (a *RAIDx) ReadBlocks(ctx context.Context, b int64, p []byte) (err error) {
	n, err := a.checkRange(b, p)
	if err != nil {
		return err
	}
	ctx, root := a.tracer.StartRoot(ctx, "raidx.read", "raidx")
	root.Val = int64(len(p))
	defer func() { root.End(err) }()
	start := time.Now()
	defer func() { a.met.readLat.Observe(time.Since(start)) }()
	if es := a.epoch.Load(); !es.plain() {
		// Overridden placements or an in-flight migration: take the
		// general epoch-aware path.
		return a.readEpoch(ctx, es, b, n, p)
	}
	devs := a.devices()
	blank := a.blankCols.Load()
	width := a.lay.TotalDisks()
	var fns []func(context.Context) error
	for col := 0; col < width; col++ {
		first := b + (int64(col)-b%int64(width)+int64(width))%int64(width)
		if first >= b+int64(n) {
			continue
		}
		count := int((b+int64(n)-1-first)/int64(width)) + 1
		dev := devs[col]
		if readable(devs, blank, col) {
			// Load-balanced single-block read: alternate the preferred
			// copy, then defer to whichever disk has less queued work.
			if a.opt.BalanceReads && count == 1 {
				m := a.lay.MirrorLoc(first)
				mdev := devs[m.Disk]
				if readable(devs, blank, m.Disk) {
					db, mb := raid.BacklogOf(dev), raid.BacklogOf(mdev)
					useMirror := mb < db || (mb == db && a.flip.Add(1)%2 == 0)
					if useMirror {
						a.met.balancedMirror.Inc()
						fns = append(fns, func(ctx context.Context) error {
							dst := p[(first-b)*int64(a.bs) : (first-b+1)*int64(a.bs)]
							err := mdev.ReadBlocks(ctx, m.Block, dst)
							if err == nil || ctx.Err() != nil {
								return err
							}
							// Failover to the data copy.
							a.noteFailover(fmt.Sprintf("raidx/d%d", m.Disk), err)
							fctx, fh := trace.Start(ctx, "raidx.failover", a.col(m.Disk))
							derr := dev.ReadBlocks(fctx, first/int64(width), dst)
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
			col := col
			fns = append(fns, func(ctx context.Context) (err error) {
				ctx, ch := trace.Start(ctx, "raidx.col-read", a.col(col))
				ch.Val = int64(count * a.bs)
				defer func() { ch.End(err) }()
				// Scatter the column run straight into p — no staging
				// buffer, no copy-out loop. Vector-aware devices land
				// each block in place; others coalesce through one
				// pooled buffer inside ReadBlocksVec.
				segs := a.colSegs(b, first, count, p)
				rerr := raid.ReadBlocksVec(ctx, dev, first/int64(width), *segs)
				putSegs(segs)
				if rerr != nil {
					if ctx.Err() != nil {
						return rerr
					}
					// Read-failover: the primary errored or timed out
					// mid-run (a flaky/partitioned node, not a known-dead
					// disk). Redirect every block of the run to its mirror
					// image on the orthogonal stripe group; the failed
					// operation has already marked the node suspect. The
					// mirrors rewrite every block of the run, so bytes a
					// partial scatter may have landed in p are overwritten.
					a.noteFailover(fmt.Sprintf("raidx/d%d", col), rerr)
					fctx, fh := trace.Start(ctx, "raidx.failover", a.col(col))
					ferr := a.readRunViaMirrors(fctx, devs, blank, first, count, b, p, rerr)
					fh.End(ferr)
					return ferr
				}
				return nil
			})
			continue
		}
		// Degraded: fetch each block's image individually — images of
		// one column scatter over many mirror groups.
		for t := 0; t < count; t++ {
			lb := first + int64(t)*int64(width)
			fns = append(fns, func(ctx context.Context) (err error) {
				a.met.degradedReads.Inc()
				if a.degradedNotify != nil {
					a.degradedNotify(1)
				}
				m := a.lay.MirrorLoc(lb)
				ctx, dh := trace.Start(ctx, "raidx.degraded-read", a.col(m.Disk))
				defer func() { dh.End(err) }()
				mdev := devs[m.Disk]
				if !readable(devs, blank, m.Disk) {
					return fmt.Errorf("core: block %d and its image both unavailable: %w", lb, raid.ErrDataLoss)
				}
				return mdev.ReadBlocks(ctx, m.Block, p[(lb-b)*int64(a.bs):(lb-b+1)*int64(a.bs)])
			})
		}
	}
	return par.Do(ctx, fns...)
}

// noteFailover records a read redirected from a failing primary copy.
func (a *RAIDx) noteFailover(subject string, cause error) {
	a.met.failoverReads.Inc()
	a.met.events.Append(obs.EventFailover, subject, cause.Error())
}

// readRunViaMirrors serves one column run from mirror images after the
// primary read failed with cause. Images of one column scatter over
// many mirror groups, so each block is fetched individually. A block
// whose image is also unavailable fails the whole run with both errors.
func (a *RAIDx) readRunViaMirrors(ctx context.Context, devs []raid.Dev, blank uint64, first int64, count int, b int64, p []byte, cause error) error {
	width := int64(a.lay.TotalDisks())
	for t := 0; t < count; t++ {
		lb := first + int64(t)*width
		m := a.lay.MirrorLoc(lb)
		mdev := devs[m.Disk]
		if !readable(devs, blank, m.Disk) {
			return fmt.Errorf("core: block %d primary failed (%v) and image unavailable: %w", lb, cause, raid.ErrDataLoss)
		}
		dst := p[(lb-b)*int64(a.bs) : (lb-b+1)*int64(a.bs)]
		if err := mdev.ReadBlocks(ctx, m.Block, dst); err != nil {
			return fmt.Errorf("core: block %d primary failed (%v), image read failed: %w", lb, cause, err)
		}
	}
	return nil
}

// WriteBlocks implements raid.Array: data blocks stripe to all disks in
// the foreground; the covered portion of each mirror group is gathered
// and written to its single mirror disk in the background.
func (a *RAIDx) WriteBlocks(ctx context.Context, b int64, p []byte) (err error) {
	n, err := a.checkRange(b, p)
	if err != nil {
		return err
	}
	ctx, root := a.tracer.StartRoot(ctx, "raidx.write", "raidx")
	root.Val = int64(len(p))
	defer func() { root.End(err) }()
	start := time.Now()
	defer func() { a.met.writeLat.Observe(time.Since(start)) }()
	// Shared-mode gate: a migration publishes its view only after every
	// write that loaded the pre-migration layout has drained.
	a.ioGate.RLock()
	defer a.ioGate.RUnlock()
	if es := a.epoch.Load(); !es.plain() {
		return a.writeEpoch(ctx, b, n, p)
	}
	devs := a.devices()
	if err := a.checkWritable(devs, b, n); err != nil {
		return err
	}
	fns := a.dataWriteFns(devs, b, n, p)
	fns = append(fns, a.mirrorWriteFns(devs, b, n, p)...)
	return par.Do(ctx, fns...)
}

// dataWriteFns builds the foreground striped data writes (one
// contiguous transfer per disk), skipping failed disks.
func (a *RAIDx) dataWriteFns(devs []raid.Dev, b int64, n int, p []byte) []func(context.Context) error {
	width := a.lay.TotalDisks()
	var fns []func(context.Context) error
	for col := 0; col < width; col++ {
		first := b + (int64(col)-b%int64(width)+int64(width))%int64(width)
		if first >= b+int64(n) {
			continue
		}
		count := int((b+int64(n)-1-first)/int64(width)) + 1
		dev := devs[col]
		phys := first / int64(width)
		if a.opt.IntentAhead {
			// Write-ahead mark: the region is in flight, so a crash here
			// must treat it as possibly torn until a resync confirms it.
			a.intLog.MarkRange(col, phys, int64(count))
		}
		if !dev.Healthy() {
			// The image carries the data; log the intent so a delta
			// resync can replay just these blocks when the device
			// returns.
			a.intLog.MarkRange(col, phys, int64(count))
			continue
		}
		col := col
		fns = append(fns, func(ctx context.Context) (err error) {
			ctx, ch := trace.Start(ctx, "raidx.col-write", a.col(col))
			ch.Val = int64(count * a.bs)
			defer func() { ch.End(err) }()
			// Gather the column run from p — no staging buffer, no
			// copy-in loop. Vector-aware devices put the segments on the
			// wire as one vectored frame; others coalesce through one
			// pooled buffer inside WriteBlocksVec.
			segs := a.colSegs(b, first, count, p)
			err = raid.WriteBlocksVec(ctx, dev, phys, *segs)
			putSegs(segs)
			if err != nil {
				// The run's on-disk state is unknown (partial landing,
				// cancelled sibling, device died mid-write): mark it
				// dirty so repair replays it from the surviving copy.
				a.intLog.MarkRange(col, phys, int64(count))
			}
			return err
		})
	}
	return fns
}

// mirrorWriteFns builds the mirror-group image writes. Each group's
// covered blocks are logically consecutive, hence physically contiguous
// in the group's slot: one gathered write per group (or per block under
// the ScatterMirror ablation), deferred unless ForegroundMirror is set.
func (a *RAIDx) mirrorWriteFns(devs []raid.Dev, b int64, n int, p []byte) []func(context.Context) error {
	gs := int64(a.lay.GroupSize())
	var fns []func(context.Context) error
	for g := b / gs; g*gs < b+int64(n); g++ {
		lo, hi := g*gs, (g+1)*gs
		if lo < b {
			lo = b
		}
		if hi > b+int64(n) {
			hi = b + int64(n)
		}
		mdisk := a.lay.MirrorDisk(g)
		dev := devs[mdisk]
		start := a.lay.GroupLoc(g)
		phys := start.Block + (lo - g*gs)
		if a.opt.IntentAhead {
			a.intLog.MarkRange(mdisk, phys, hi-lo)
		}
		if !dev.Healthy() {
			// The data copy carries the blocks; log the skipped image
			// region so a returning mirror is delta-resynced.
			a.intLog.MarkRange(mdisk, phys, hi-lo)
			continue
		}
		if a.opt.ScatterMirror {
			for lb := lo; lb < hi; lb++ {
				lb := lb
				fns = append(fns, func(ctx context.Context) error {
					data := p[(lb-b)*int64(a.bs) : (lb-b+1)*int64(a.bs)]
					mphys := phys + (lb - lo)
					var err error
					if a.opt.ForegroundMirror {
						err = dev.WriteBlocks(ctx, mphys, data)
					} else {
						err = dev.WriteBlocksBackground(ctx, mphys, data)
					}
					if err != nil {
						a.intLog.MarkRange(mdisk, mphys, 1)
					}
					return err
				})
			}
			continue
		}
		fns = append(fns, func(ctx context.Context) (err error) {
			ctx, mh := trace.Start(ctx, "raidx.mirror-write", a.col(mdisk))
			mh.Val = (hi - lo) * int64(a.bs)
			defer func() { mh.End(err) }()
			chunk := p[(lo-b)*int64(a.bs) : (hi-b)*int64(a.bs)]
			if a.opt.ForegroundMirror {
				err = dev.WriteBlocks(ctx, phys, chunk)
			} else {
				err = dev.WriteBlocksBackground(ctx, phys, chunk)
			}
			if err != nil {
				// The image may be missing or torn: record the intent so
				// repair re-copies it from the data blocks.
				a.intLog.MarkRange(mdisk, phys, hi-lo)
			}
			return err
		})
	}
	return fns
}

// checkWritable verifies that every touched block retains at least one
// healthy copy location.
func (a *RAIDx) checkWritable(devs []raid.Dev, b int64, n int) error {
	for lb := b; lb < b+int64(n); lb++ {
		dOK := devs[a.lay.DataLoc(lb).Disk].Healthy()
		mOK := devs[a.lay.MirrorLoc(lb).Disk].Healthy()
		if !dOK && !mOK {
			return fmt.Errorf("core: block %d has no healthy copy location: %w", lb, raid.ErrDataLoss)
		}
	}
	return nil
}

func (a *RAIDx) checkRange(b int64, p []byte) (int, error) {
	if len(p) == 0 || len(p)%a.bs != 0 {
		return 0, fmt.Errorf("core: buffer length %d not a positive multiple of block size %d", len(p), a.bs)
	}
	n := len(p) / a.bs
	if b < 0 || b+int64(n) > a.Blocks() {
		return 0, fmt.Errorf("core: blocks [%d,%d) outside [0,%d)", b, b+int64(n), a.Blocks())
	}
	return n, nil
}

// Flush implements raid.Array: waits for all deferred image writes, so
// the array is fully redundant on return.
func (a *RAIDx) Flush(ctx context.Context) (err error) {
	ctx, root := a.tracer.StartRoot(ctx, "raidx.flush", "raidx")
	defer func() { root.End(err) }()
	devs := a.devices()
	return par.ForEach(ctx, len(devs), func(ctx context.Context, i int) error {
		if devs[i] == nil || !devs[i].Healthy() {
			return nil
		}
		return devs[i].Flush(ctx)
	})
}

// rebuildChunk bounds repair I/O: blocks per recovered write. A whole
// column written in one call is tens of megabytes at realistic disk
// sizes, which overflows the transport frame limit when the target is a
// remote device (and holds the entire column in memory).
const rebuildChunk = 128

// Rebuild implements raid.Rebuilder: the replaced disk's data half is
// recovered from images on other nodes; its mirror half is regenerated
// from the corresponding data blocks. Equivalent to RebuildFrom with no
// checkpoint and no pacing.
func (a *RAIDx) Rebuild(ctx context.Context, idx int) error {
	return a.RebuildFrom(ctx, idx, nil, nil)
}

// RebuildFrom is Rebuild with a resumable checkpoint and optional
// pacing. prog, when non-nil, is read to skip work already done by an
// interrupted run and updated after every landed chunk, so a caller
// that keeps the same RebuildProgress across attempts resumes instead
// of restarting; pass a zeroed RebuildProgress (or nil) for a fresh
// rebuild. pace, when non-nil, is called after each chunk with the
// bytes just copied — returning an error aborts the rebuild with the
// checkpoint intact.
func (a *RAIDx) RebuildFrom(ctx context.Context, idx int, prog *RebuildProgress, pace PaceFunc) (err error) {
	devs := a.devices()
	if idx < 0 || idx >= len(devs) {
		return fmt.Errorf("core: rebuild of device %d out of range", idx)
	}
	if _, _, active := a.Migrating(); active {
		return ErrMigrationActive
	}
	if a.ColumnRetired(idx) {
		return ErrRetiredColumn
	}
	if !devs[idx].Healthy() {
		return fmt.Errorf("core: rebuild target %d is not healthy (replace it first)", idx)
	}
	if prog == nil {
		prog = &RebuildProgress{}
	}
	if ep := a.Epoch(); !ep.Trivial() {
		return a.rebuildEpochFrom(ctx, idx, ep, prog, pace)
	}
	if prog.Epoch != 0 {
		// Checkpoint cut under a different layout generation: placements
		// moved, so the recorded progress no longer names the same blocks.
		*prog = RebuildProgress{}
	}
	blank := a.blankCols.Load()
	ctx, root := a.tracer.StartRoot(ctx, "raidx.rebuild", a.col(idx))
	defer func() { root.End(err) }()
	subject := fmt.Sprintf("raidx/d%d", idx)
	detail := ""
	if prog.DataDone > 0 || prog.GroupsDone > 0 {
		detail = fmt.Sprintf("resume data=%d groups=%d", prog.DataDone, prog.GroupsDone)
	}
	a.met.events.Append(obs.EventRebuildStart, subject, detail)
	defer func() {
		detail := "ok"
		if err != nil {
			detail = err.Error()
		}
		a.met.events.Append(obs.EventRebuildEnd, subject, detail)
	}()
	width := int64(a.lay.TotalDisks())
	gs := int64(a.lay.GroupSize())
	colBlocks := (a.Blocks() - int64(idx) + width - 1) / width
	if colBlocks < 0 {
		colBlocks = 0
	}
	prog.DataTotal = colBlocks
	prog.GroupsTotal = 0
	for g := int64(0); g < a.Blocks()/gs; g++ {
		if a.lay.MirrorDisk(g) == idx {
			prog.GroupsTotal++
		}
	}
	a.rebuildTotal.Store(prog.DataTotal + prog.GroupsTotal*gs)
	a.rebuildDone.Store(prog.done(gs))
	// Recover the data half: blocks lb ≡ idx (mod width), in bounded
	// chunks. A checkpointed DataDone is rounded down to a chunk
	// boundary — re-copying a partial chunk is idempotent, trusting it
	// is not.
	if colBlocks > 0 {
		start := prog.DataDone
		if start > colBlocks {
			start = colBlocks
		}
		start -= start % rebuildChunk
		n := colBlocks
		if n > rebuildChunk {
			n = rebuildChunk
		}
		// One pooled scratch buffer serves every chunk of the column.
		buf := bufpool.Get(int(n) * a.bs)
		defer bufpool.Put(buf)
		for c := start; c < colBlocks; c += rebuildChunk {
			n := colBlocks - c
			if n > rebuildChunk {
				n = rebuildChunk
			}
			part := buf[:n*int64(a.bs)]
			err := par.ForEach(ctx, int(n), func(ctx context.Context, t int) error {
				lb := int64(idx) + (c+int64(t))*width
				m := a.lay.MirrorLoc(lb)
				src := devs[m.Disk]
				if !readable(devs, blank, m.Disk) {
					return fmt.Errorf("core: image of block %d unavailable during rebuild: %w", lb, raid.ErrDataLoss)
				}
				return src.ReadBlocks(ctx, m.Block, part[t*a.bs:(t+1)*a.bs])
			})
			if err != nil {
				return err
			}
			if err := devs[idx].WriteBlocks(ctx, c, part); err != nil {
				return err
			}
			prog.DataDone = c + n
			a.rebuildDone.Store(prog.done(gs))
			if pace != nil {
				if err := pace(ctx, int(n)*a.bs); err != nil {
					return err
				}
			}
		}
		prog.DataDone = colBlocks
	}
	// Recover the mirror half: every group whose slot lives on idx. One
	// pooled scratch buffer is reused across all the groups — each
	// gathered group write lands before the next group's reads refill it.
	// A checkpoint skips the first GroupsDone owned groups (group order
	// is deterministic).
	groups := a.Blocks() / gs
	chunk := bufpool.Get(int(gs) * a.bs)
	defer bufpool.Put(chunk)
	owned := int64(0)
	for g := int64(0); g < groups; g++ {
		if a.lay.MirrorDisk(g) != idx {
			continue
		}
		owned++
		if owned <= prog.GroupsDone {
			continue // an interrupted run already landed this group
		}
		start := a.lay.GroupLoc(g)
		err := par.ForEach(ctx, int(gs), func(ctx context.Context, j int) error {
			lb := g*gs + int64(j)
			d := a.lay.DataLoc(lb)
			src := devs[d.Disk]
			if !readable(devs, blank, d.Disk) {
				return fmt.Errorf("core: data copy of block %d unavailable during rebuild: %w", lb, raid.ErrDataLoss)
			}
			return src.ReadBlocks(ctx, d.Block, chunk[j*a.bs:(j+1)*a.bs])
		})
		if err != nil {
			return err
		}
		if err := devs[idx].WriteBlocks(ctx, start.Block, chunk); err != nil {
			return err
		}
		prog.GroupsDone = owned
		a.rebuildDone.Store(prog.done(gs))
		if pace != nil {
			if err := pace(ctx, int(gs)*a.bs); err != nil {
				return err
			}
		}
	}
	// A fresh, complete copy supersedes any intents logged against the
	// device while it was down, and the column is a read source again.
	a.intLog.ClearDev(idx)
	a.setBlank(idx, false)
	return nil
}

// SetDegradedNotify implements raid.DegradedNotifier: fn is called
// with the number of blocks each degraded read served through mirror
// images. Set it before the array takes I/O; fn must be safe for
// concurrent calls.
func (a *RAIDx) SetDegradedNotify(fn func(blocks int)) { a.degradedNotify = fn }

// Verify implements raid.Verifier: every data block must equal its
// image. Call Flush first if background writes may be pending.
func (a *RAIDx) Verify(ctx context.Context) (err error) {
	ctx, root := a.tracer.StartRoot(ctx, "raidx.verify", "raidx")
	defer func() { root.End(err) }()
	devs := a.devices()
	es := a.epoch.Load()
	data := bufpool.Get(a.bs)
	image := bufpool.Get(a.bs)
	defer bufpool.Put(data)
	defer bufpool.Put(image)
	for lb := int64(0); lb < a.Blocks(); lb++ {
		d, m := es.dataLoc(lb), es.mirrorLoc(lb)
		if err := devs[d.Disk].ReadBlocks(ctx, d.Block, data); err != nil {
			return err
		}
		if err := devs[m.Disk].ReadBlocks(ctx, m.Block, image); err != nil {
			return err
		}
		if i := parity.FirstDiff(data, image); i >= 0 {
			return fmt.Errorf("core: block %d differs from its image at byte %d", lb, i)
		}
	}
	return nil
}
