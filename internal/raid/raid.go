// Package raid implements the baseline disk array engines the paper
// compares RAID-x against: RAID-0 (striping), RAID-10 (striped
// mirrors), chained declustering, and Stripe, the parity engine that
// serves RAID-5 (rotated parity), the rs(k,m) erasure-coded tier and
// AFRAID. The RAID-x engine itself — the paper's contribution — lives
// in internal/core and shares this package's device interface, striping
// machinery and repair layer: the member table (members.go) and the one
// loop that rebuilds, resyncs and scrubs every redundant engine
// (restore.go).
//
// Engines are pure data movers over a set of block devices. The devices
// may be local simulated disks, or remote disks reached through the
// cooperative disk drivers (internal/cdd); the engines are oblivious.
// All engines support multi-block requests, issue per-disk I/O in
// parallel (fork-join through internal/par), merge per-disk accesses
// into contiguous runs (long sequential transfers), and survive single
// disk failures where the architecture provides redundancy.
package raid

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
)

// Dev is the block device interface consumed by array engines.
// *disk.Disk implements it, as do the CDD remote-disk clients.
type Dev interface {
	// BlockSize reports the device block size in bytes.
	BlockSize() int
	// NumBlocks reports device capacity in blocks.
	NumBlocks() int64
	// ReadBlocks fills buf with len(buf)/BlockSize consecutive blocks
	// starting at b.
	ReadBlocks(ctx context.Context, b int64, buf []byte) error
	// WriteBlocks stores data as consecutive blocks starting at b.
	WriteBlocks(ctx context.Context, b int64, data []byte) error
	// WriteBlocksBackground is WriteBlocks with deferred timing: the
	// caller does not wait for the device. Contents are applied
	// immediately for simulation purposes.
	WriteBlocksBackground(ctx context.Context, b int64, data []byte) error
	// Flush waits for background work to drain.
	Flush(ctx context.Context) error
	// Healthy reports whether the device is serving requests.
	Healthy() bool
}

// Array is the logical block device an engine exposes.
type Array interface {
	// Name identifies the architecture ("raid0", "raid5", "raid10",
	// "chained", "raidx").
	Name() string
	// BlockSize reports the logical block size in bytes.
	BlockSize() int
	// Blocks reports usable capacity in blocks.
	Blocks() int64
	// ReadBlocks fills p with len(p)/BlockSize logical blocks starting
	// at b.
	ReadBlocks(ctx context.Context, b int64, p []byte) error
	// WriteBlocks stores p as logical blocks starting at b.
	WriteBlocks(ctx context.Context, b int64, p []byte) error
	// Flush waits until all deferred (background) redundancy updates
	// have drained, so the array is fully redundant.
	Flush(ctx context.Context) error
}

// Rebuilder is implemented by arrays that can reconstruct a replaced
// disk from redundancy.
type Rebuilder interface {
	// Rebuild reconstructs the full contents of (replaced) disk idx.
	Rebuild(ctx context.Context, idx int) error
}

// DevSwapper is implemented by arrays whose member devices can be
// replaced in place — every redundant engine, through its Members
// table (Members.Swap).
type DevSwapper interface {
	Rebuilder
	// SwapDev replaces member idx with dev (which must match geometry)
	// and returns the previous device.
	SwapDev(idx int, dev Dev) (Dev, error)
}

// Every redundant engine of this package is repaired by the one loop in
// restore.go and takes a replacement device (core.RAIDx asserts the
// same).
var _, _, _ interface {
	Restorer
	DevSwapper
} = (*Stripe)(nil), (*RAID10)(nil), (*Chained)(nil)

// Verifier is implemented by arrays that can check their redundancy
// (mirror equality, parity consistency) — used by tests and scrubbing.
type Verifier interface {
	// Verify checks all redundancy and returns an error describing the
	// first inconsistency found.
	Verify(ctx context.Context) error
}

// ErrDataLoss reports that the requested data is unrecoverable (more
// failures than the redundancy covers).
var ErrDataLoss = errors.New("raid: unrecoverable data loss")

// ErrPending reports blocks whose redundancy is not computed yet
// (AFRAID's redundancy window). An error wrapping it wraps ErrDataLoss
// too: a check counts the blocks as pending, a rebuild has lost them.
var ErrPending = errors.New("raid: redundancy pending")

// QueueReporter is optionally implemented by devices that can report
// their pending foreground backlog (simulated disks do; remote disks do
// not). Load-balancing read policies treat devices without it as idle.
type QueueReporter interface {
	QueueBacklog() time.Duration
}

// BacklogOf reports a device's queue backlog, zero when unknown.
func BacklogOf(d Dev) time.Duration {
	if q, ok := d.(QueueReporter); ok {
		return q.QueueBacklog()
	}
	return 0
}

// BgQueueReporter is optionally implemented by devices that can report
// the pending deferred-write (background mirror) backlog. Observability
// gauges use it to expose how far redundancy convergence lags behind
// the foreground traffic.
type BgQueueReporter interface {
	BgQueueBacklog() time.Duration
}

// BgBacklogOf reports a device's background-lane backlog, zero when
// unknown.
func BgBacklogOf(d Dev) time.Duration {
	if q, ok := d.(BgQueueReporter); ok {
		return q.BgQueueBacklog()
	}
	return 0
}

// CheckDevs validates a homogeneous device set and returns the common
// block size and per-device capacity.
func CheckDevs(devs []Dev, min int) (blockSize int, diskBlocks int64, err error) {
	if len(devs) < min {
		return 0, 0, fmt.Errorf("raid: need at least %d devices, got %d", min, len(devs))
	}
	blockSize = devs[0].BlockSize()
	diskBlocks = devs[0].NumBlocks()
	for i, d := range devs {
		if d.BlockSize() != blockSize {
			return 0, 0, fmt.Errorf("raid: device %d block size %d != %d", i, d.BlockSize(), blockSize)
		}
		if d.NumBlocks() < diskBlocks {
			diskBlocks = d.NumBlocks()
		}
	}
	if diskBlocks == 0 {
		return 0, 0, errors.New("raid: zero-capacity device")
	}
	return blockSize, diskBlocks, nil
}

// CheckRange validates a logical request against the array geometry:
// p must be a positive whole number of blocks (else *store.SizeError),
// all of them inside the array (else *store.RangeError).
func CheckRange(a Array, b int64, p []byte) (blocks int, err error) {
	bs := a.BlockSize()
	if len(p) == 0 || len(p)%bs != 0 {
		return 0, &store.SizeError{Got: len(p), Want: bs}
	}
	n := len(p) / bs
	if b < 0 || b+int64(n) > a.Blocks() {
		return 0, &store.RangeError{Block: b + int64(n) - 1, Max: a.Blocks()}
	}
	return n, nil
}

// DegradedNotifier is optionally implemented by engines that can report
// reads served through redundancy reconstruction instead of a direct
// block read. The vol package wires it to a per-volume labeled counter;
// fn must be cheap and safe to call concurrently. Set it before the
// array takes I/O.
type DegradedNotifier interface {
	SetDegradedNotify(fn func(blocks int))
}
