// Package disk models the cluster's physical disks. A Disk couples a
// real block store (the bytes) with a timing model (seek, rotation,
// transfer) charged on a vclock resource, plus failure injection for
// reliability experiments.
//
// The timing model distinguishes random from sequential access: a
// request that continues where the previous one ended pays only a small
// track-to-track positioning cost. This is the mechanism behind the
// paper's orthogonal striping and mirroring (OSM) advantage — mirror
// groups are gathered into one long sequential write on a single disk
// instead of scattered small writes.
//
// Timing is charged only when the context carries a vclock.Proc; without
// one (real-time mode, pure correctness tests) the disk just moves the
// bytes.
package disk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ErrFailed is returned (wrapped) for any access to a failed disk.
var ErrFailed = errors.New("disk failed")

// FailedError wraps ErrFailed with the identity of the failed disk.
type FailedError struct{ ID string }

func (e *FailedError) Error() string { return fmt.Sprintf("disk %s: failed", e.ID) }
func (e *FailedError) Unwrap() error { return ErrFailed }

// Model is the performance model of one disk, loosely calibrated to the
// ~10 GB SCSI disks of the paper's 1999 Trojans cluster.
type Model struct {
	// Seek is the average positioning time (seek + rotational latency)
	// paid by a request that does not continue the previous transfer.
	Seek time.Duration
	// TrackSkip is the positioning time for a sequential continuation.
	TrackSkip time.Duration
	// BandwidthBps is the media transfer rate in bytes per second.
	BandwidthBps float64
	// PerRequest is fixed controller overhead per request.
	PerRequest time.Duration
}

// DefaultModel matches a late-1990s 7200 RPM SCSI disk: ~8 ms average
// seek, ~4 ms rotational latency (folded into Seek), ~10 MB/s media rate.
func DefaultModel() Model {
	return Model{
		Seek:         10 * time.Millisecond,
		TrackSkip:    500 * time.Microsecond,
		BandwidthBps: 10e6,
		PerRequest:   200 * time.Microsecond,
	}
}

// AccessTime reports how long transferring n bytes takes under the
// model, given whether the access continues the previous one.
func (m Model) AccessTime(n int, sequential bool) time.Duration {
	pos := m.Seek
	if sequential {
		pos = m.TrackSkip
	}
	xfer := time.Duration(float64(n) / m.BandwidthBps * float64(time.Second))
	return m.PerRequest + pos + xfer
}

// Disk is one simulated disk: a block store plus arm timing and failure
// state. All methods are safe only under the vclock's cooperative
// scheduling or external synchronization; the underlying store is
// itself concurrency-safe.
type Disk struct {
	id    string
	st    store.BlockStore
	model Model
	arm   *vclock.Resource // nil => no timing (pure data mode)
	// bg is the deferred-write lane: background writes serialize among
	// themselves here instead of occupying the arm, modelling the CDD's
	// low-priority idle-time mirror updates that never delay foreground
	// requests. Flush drains both lanes.
	bg *vclock.Resource

	// mu guards the mutable state below in real-time mode, where array
	// engines issue parallel per-disk I/O from goroutines. (Virtual-time
	// mode is cooperatively single-threaded, so the lock is
	// uncontended there.)
	mu            sync.Mutex
	failed        bool
	failCountdown int64 // >0: fail after this many more requests
	nextBlock     int64 // expected block for a sequential continuation
	bgNextBlock   int64 // sequential detection for the background lane
	reads         int64
	writes        int64
	bytesRead     int64
	bytesWritten  int64
	seqHits       int64 // foreground accesses that continued the previous one
}

// New creates a disk over st. If sim is non-nil, a single-server arm
// resource is created on it and every access charges virtual time.
func New(sim *vclock.Sim, id string, st store.BlockStore, model Model) *Disk {
	d := &Disk{id: id, st: st, model: model, nextBlock: -1, bgNextBlock: -1}
	if sim != nil {
		d.arm = vclock.NewResource(sim, "disk:"+id, 1)
		d.bg = vclock.NewResource(sim, "diskbg:"+id, 1)
	}
	return d
}

// ID returns the disk's identifier.
func (d *Disk) ID() string { return d.id }

// BlockSize reports the block size in bytes.
func (d *Disk) BlockSize() int { return d.st.BlockSize() }

// NumBlocks reports capacity in blocks.
func (d *Disk) NumBlocks() int64 { return d.st.NumBlocks() }

// Model returns the disk's timing model.
func (d *Disk) Model() Model { return d.model }

// Healthy reports whether the disk is serving requests.
func (d *Disk) Healthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.failed
}

// Fail marks the disk failed; all subsequent accesses error.
func (d *Disk) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// FailAfter arranges for the disk to fail after n more requests
// complete, for failure-injection tests.
func (d *Disk) FailAfter(n int64) {
	d.mu.Lock()
	d.failCountdown = n
	d.mu.Unlock()
}

// Readmit clears the failure while keeping the store, modelling a disk
// whose node blipped offline (partition, restart) and came back with
// its data intact but possibly stale — the delta-resync case, as
// opposed to the blank-replacement rebuild case of Replace.
func (d *Disk) Readmit() {
	d.mu.Lock()
	d.failed = false
	d.failCountdown = 0
	d.mu.Unlock()
}

// Replace presents a fresh zeroed store of the same geometry and clears
// the failure, modelling a hot-swapped replacement disk awaiting rebuild.
// The store is blanked in place, so the old contents are destroyed on
// the backing medium too: a file-backed disk's old blocks must not
// resurrect on restart.
func (d *Disk) Replace() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.st.Blank(); err != nil {
		return fmt.Errorf("disk %s: blank: %w", d.id, err)
	}
	d.failed = false
	d.failCountdown = 0
	d.nextBlock = -1
	d.bgNextBlock = -1
	return nil
}

// Stats reports cumulative operation counts.
func (d *Disk) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes, d.bytesRead, d.bytesWritten
}

// SeqHits reports how many foreground accesses continued the previous
// transfer (the sequential-hit rate is SeqHits over reads+writes).
// Tracked in both timed (vclock) and pure data mode.
func (d *Disk) SeqHits() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seqHits
}

// Arm exposes the disk's foreground timing resource (nil in pure data
// mode); the benchmark harness uses it for utilization reports.
func (d *Disk) Arm() *vclock.Resource { return d.arm }

// BgLane exposes the deferred-write lane (nil in pure data mode).
func (d *Disk) BgLane() *vclock.Resource { return d.bg }

// QueueBacklog reports how much queued foreground work the disk is
// holding right now (zero in pure data mode). Load-balancing read
// policies use it to pick the less-loaded copy.
func (d *Disk) QueueBacklog() time.Duration {
	if d.arm == nil {
		return 0
	}
	return d.arm.Backlog()
}

// BgQueueBacklog reports how much deferred-write (background mirror)
// work is queued on the disk's background lane (zero in pure data
// mode). Observability gauges use it to show how far redundancy
// convergence lags behind foreground traffic.
func (d *Disk) BgQueueBacklog() time.Duration {
	if d.bg == nil {
		return 0
	}
	return d.bg.Backlog()
}

func (d *Disk) checkUp() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return &FailedError{ID: d.id}
	}
	if d.failCountdown > 0 {
		d.failCountdown--
		if d.failCountdown == 0 {
			d.failed = true
		}
	}
	return nil
}

// checkRange validates a scatter/gather list of total bytes at block b:
// each segment a positive multiple of the block size, the run inside the
// disk.
func (d *Disk) checkRange(b int64, segs [][]byte, total int) error {
	bs := d.st.BlockSize()
	for _, s := range segs {
		if len(s) == 0 || len(s)%bs != 0 {
			return &store.SizeError{Got: len(s), Want: bs}
		}
	}
	if total == 0 {
		return &store.SizeError{Got: 0, Want: bs}
	}
	n := int64(total / bs)
	if b < 0 || b+n > d.st.NumBlocks() {
		return &store.RangeError{Block: b + n - 1, Max: d.st.NumBlocks()}
	}
	return nil
}

// noteAccess updates sequential-run detection for an n-byte access at
// block b and reports whether it continued the previous transfer.
func (d *Disk) noteAccess(b int64, n int, background bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if background {
		seq := b == d.bgNextBlock
		d.bgNextBlock = b + int64(n/d.st.BlockSize())
		return seq
	}
	seq := b == d.nextBlock
	d.nextBlock = b + int64(n/d.st.BlockSize())
	if seq {
		d.seqHits++
	}
	return seq
}

// charge applies the timing model for an n-byte access at block b.
// Background writes are reserved on the deferred-write lane without
// blocking the caller. Accesses without a vclock process in ctx are
// administrative (prefill, verification) and charge nothing — and do
// not perturb sequential detection. In pure data mode (no sim) there is
// no timing, but sequential runs are still tracked so real-time
// deployments report a sequential-hit rate.
func (d *Disk) charge(ctx context.Context, b int64, n int, background bool) {
	if d.arm == nil {
		d.noteAccess(b, n, background)
		return
	}
	p, hasProc := vclock.From(ctx)
	if !hasProc {
		return
	}
	if background {
		d.bg.Reserve(d.model.AccessTime(n, d.noteAccess(b, n, true)))
		return
	}
	d.arm.Use(p, d.model.AccessTime(n, d.noteAccess(b, n, false)))
}

// ReadBlocks reads len(buf)/BlockSize consecutive blocks starting at b.
func (d *Disk) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	return d.transfer(ctx, b, [][]byte{buf}, xferRead)
}

// ReadBlocksVec implements raid.VecDev: one disk access (one seek, one
// sequential transfer for timing purposes) scattered into segs.
func (d *Disk) ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	return d.transfer(ctx, b, segs, xferRead)
}

// WriteBlocks writes len(data)/BlockSize consecutive blocks starting at
// b, blocking for the full access time.
func (d *Disk) WriteBlocks(ctx context.Context, b int64, data []byte) error {
	return d.transfer(ctx, b, [][]byte{data}, xferWrite)
}

// WriteBlocksVec implements raid.VecDev: one disk access gathered from
// segs.
func (d *Disk) WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	return d.transfer(ctx, b, segs, xferWrite)
}

// WriteBlocksBackground writes like WriteBlocks but does not block the
// caller for the disk time: the bytes are applied immediately (they are
// durable for simulation purposes) while the arm time is reserved in the
// background, exactly the deferred mirror-update semantics of the CDD.
// Foreground requests issued afterwards queue behind the reservation.
func (d *Disk) WriteBlocksBackground(ctx context.Context, b int64, data []byte) error {
	return d.transfer(ctx, b, [][]byte{data}, xferBgWrite)
}

// xfer is the kind of one disk access.
type xfer uint8

const (
	xferRead xfer = iota
	xferWrite
	xferBgWrite
)

var xferSpans = [...]string{xferRead: "disk.read", xferWrite: "disk.write", xferBgWrite: "disk.bg-write"}

// transfer is every access's one body: consecutive blocks from b moved
// between the store and segs, charged to the timing model as a single
// access.
func (d *Disk) transfer(ctx context.Context, b int64, segs [][]byte, k xfer) (err error) {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	h := trace.StartLeaf(ctx, xferSpans[k], d.id)
	h.Val = int64(total)
	defer func() { h.End(err) }()
	if err := d.checkUp(); err != nil {
		return err
	}
	if err := d.checkRange(b, segs, total); err != nil {
		return err
	}
	d.charge(ctx, b, total, k == xferBgWrite)
	bs := d.st.BlockSize()
	blk := b
	for _, s := range segs {
		for off := 0; off < len(s); off += bs {
			if k == xferRead {
				err = d.st.ReadBlock(blk, s[off:off+bs])
			} else {
				err = d.st.WriteBlock(blk, s[off:off+bs])
			}
			if err != nil {
				return err
			}
			blk++
		}
	}
	d.mu.Lock()
	if k == xferRead {
		d.reads++
		d.bytesRead += int64(total)
	} else {
		d.writes++
		d.bytesWritten += int64(total)
	}
	d.mu.Unlock()
	return nil
}

// Flush blocks until all background (reserved) work on the disk has
// drained.
func (d *Disk) Flush(ctx context.Context) (err error) {
	h := trace.StartLeaf(ctx, "disk.flush", d.id)
	defer func() { h.End(err) }()
	d.mu.Lock()
	failed := d.failed
	d.mu.Unlock()
	if failed {
		return &FailedError{ID: d.id}
	}
	if d.arm == nil {
		return nil
	}
	if p, ok := vclock.From(ctx); ok {
		d.arm.Drain(p)
		d.bg.Drain(p)
	}
	return nil
}
