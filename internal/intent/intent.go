// Package intent implements a write-intent log: a per-device,
// region-granular dirty bitmap recording which physical block regions of
// an array member may be stale because a write could not reach it.
//
// The RAID-x engine marks regions dirty on the write path whenever a
// copy location is skipped (its device is suspect or failed) or a copy
// write errors out. When the device comes back — a node readmitted
// after a partition, a restart, a transient stall — the repair layer
// replays only the dirty regions from the surviving copies instead of
// recopying the whole disk. Dirty-region tracking is the difference
// between paying seconds for a two-second network blip and paying a
// whole-disk rebuild for it (cf. Thomasian's mirrored-array survey,
// arXiv:1801.08873).
//
// Granularity is a trade-off set by the region size: coarse regions keep
// the bitmap tiny and coalesce adjacent writes, at the cost of replaying
// a few clean blocks around each dirty one. The log is safe to
// over-mark — replaying a clean region is idempotent — so every error
// path marks conservatively.
//
// The log serializes to a compact binary snapshot (MarshalBinary) that
// the repair supervisor persists through the CDD managers, and merges
// snapshots by union (Merge), so a repair host that crashes and restarts
// recovers its dirty map from any surviving node.
//
// All methods are safe on a nil *Log (they discard marks and report
// nothing dirty), following the internal/obs nil-safety idiom: the
// engine can be built without intent logging and every hook is a no-op.
package intent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// DefaultRegionBlocks is the default dirty-tracking granularity: one bit
// per 64 physical blocks (2 MiB at the common 32 KiB block size).
const DefaultRegionBlocks = 64

// Region is a contiguous run of physical blocks on one device,
// region-aligned except possibly at the device end.
type Region struct {
	Start int64 `json:"start"`
	Count int64 `json:"count"`
}

// Log is the write-intent log of one array: a dirty bitset per member
// device over fixed-size physical-block regions.
type Log struct {
	mu           sync.Mutex
	regionBlocks int64
	deviceBlocks int64
	bits         [][]uint64 // one bitset per device
	dirty        []int64    // dirty-region count per device (cheap gauges)
	gen          uint64     // bumped on every mutation (persistence dirtiness)
	// taken holds, per device, the bits the last TakeDirty handed out:
	// snapshots list them until they are replayed (empty: nothing held).
	taken [][]uint64
	// n is len(bits) for the bounds checks made before taking mu: Grow
	// appends to bits while marks and polls are in flight.
	n atomic.Int64
}

// tracks reports whether the log — nil included — tracks device dev.
// Devices are only ever appended, so a yes stays true.
func (l *Log) tracks(dev int) bool { return l != nil && dev >= 0 && dev < int(l.n.Load()) }

// NewLog creates a log for an array of devices, each deviceBlocks
// physical blocks, tracked at regionBlocks granularity (0 takes
// DefaultRegionBlocks).
func NewLog(devices int, deviceBlocks, regionBlocks int64) *Log {
	if regionBlocks <= 0 {
		regionBlocks = DefaultRegionBlocks
	}
	if devices < 0 || deviceBlocks < 0 {
		panic(fmt.Sprintf("intent: bad geometry %d x %d", devices, deviceBlocks))
	}
	regions := (deviceBlocks + regionBlocks - 1) / regionBlocks
	words := (regions + 63) / 64
	l := &Log{
		regionBlocks: regionBlocks,
		deviceBlocks: deviceBlocks,
		bits:         make([][]uint64, devices),
		taken:        make([][]uint64, devices),
		dirty:        make([]int64, devices),
	}
	for i := range l.bits {
		l.bits[i] = make([]uint64, words)
	}
	l.n.Store(int64(devices))
	return l
}

// Grow extends the log to track devices members, preserving existing
// bitsets: new devices start clean. Indices are stable — an online grow
// appends devices, never renumbers them. Shrinking is not supported
// (retired members keep their slot; their bits simply stay clean), and
// a nil log stays nil-safe.
func (l *Log) Grow(devices int) {
	if l == nil || devices <= int(l.n.Load()) {
		return
	}
	words := (l.regions() + 63) / 64
	l.mu.Lock()
	for len(l.bits) < devices {
		l.bits = append(l.bits, make([]uint64, words))
		l.taken = append(l.taken, nil)
		l.dirty = append(l.dirty, 0)
	}
	l.n.Store(int64(len(l.bits)))
	l.gen++
	l.mu.Unlock()
}

// RegionBlocks reports the tracking granularity in blocks.
func (l *Log) RegionBlocks() int64 {
	if l == nil {
		return 0
	}
	return l.regionBlocks
}

// Devices reports how many devices the log tracks.
func (l *Log) Devices() int {
	if l == nil {
		return 0
	}
	return int(l.n.Load())
}

// regions reports the number of regions per device. Caller holds no lock
// (immutable after construction).
func (l *Log) regions() int64 {
	return (l.deviceBlocks + l.regionBlocks - 1) / l.regionBlocks
}

// MarkRange marks the regions covering physical blocks [block,
// block+count) on device dev as dirty. Out-of-range portions are
// clamped; a nil log discards the mark.
func (l *Log) MarkRange(dev int, block, count int64) {
	if !l.tracks(dev) || count <= 0 {
		return
	}
	lo, hi := block, block+count
	if lo < 0 {
		lo = 0
	}
	if hi > l.deviceBlocks {
		hi = l.deviceBlocks
	}
	if lo >= hi {
		return
	}
	first, last := lo/l.regionBlocks, (hi-1)/l.regionBlocks
	l.mu.Lock()
	bits := l.bits[dev]
	for r := first; r <= last; r++ {
		w, b := r/64, uint(r%64)
		if bits[w]&(1<<b) == 0 {
			bits[w] |= 1 << b
			l.dirty[dev]++
		}
	}
	l.gen++
	l.mu.Unlock()
}

// DirtyRegions reports how many regions are currently dirty on dev.
func (l *Log) DirtyRegions(dev int) int64 {
	if !l.tracks(dev) {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty[dev]
}

// DirtyBlocks reports the total blocks covered by dev's dirty regions
// (an upper bound on what a resync will move).
func (l *Log) DirtyBlocks(dev int) int64 {
	if l == nil {
		return 0
	}
	var n int64
	for _, r := range l.Dirty(dev) {
		n += r.Count
	}
	return n
}

// Dirty returns dev's dirty regions, coalesced into maximal contiguous
// runs, without clearing them.
func (l *Log) Dirty(dev int) []Region {
	if !l.tracks(dev) {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.collect(dev)
}

// TakeDirty atomically returns dev's coalesced dirty regions and clears
// them. The caller owns replaying the returned regions; on failure it
// must re-mark them (MarkRange is idempotent) or the intents are lost.
// Snapshots keep listing the regions until the caller's next TakeDirty
// (or a ClearDev) on dev, which it makes once they are replayed, so a
// crash mid-replay loses none of them.
func (l *Log) TakeDirty(dev int) []Region {
	if !l.tracks(dev) {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.collect(dev)
	held := l.taken[dev][:0]
	if len(out) > 0 {
		held = append(held, l.bits[dev]...)
		clear(l.bits[dev])
		l.dirty[dev] = 0
	}
	if len(out) > 0 || len(l.taken[dev]) > 0 {
		l.gen++
	}
	l.taken[dev] = held
	return out
}

// collect builds the coalesced region list for dev. l.mu held.
func (l *Log) collect(dev int) []Region {
	var out []Region
	bits := l.bits[dev]
	regions := l.regions()
	runStart := int64(-1)
	flushRun := func(endRegion int64) {
		if runStart < 0 {
			return
		}
		start := runStart * l.regionBlocks
		end := endRegion * l.regionBlocks
		if end > l.deviceBlocks {
			end = l.deviceBlocks
		}
		out = append(out, Region{Start: start, Count: end - start})
		runStart = -1
	}
	for r := int64(0); r < regions; r++ {
		if bits[r/64]&(1<<uint(r%64)) != 0 {
			if runStart < 0 {
				runStart = r
			}
		} else {
			flushRun(r)
		}
	}
	flushRun(regions)
	return out
}

// ClearDev drops every dirty mark on dev (a completed full rebuild
// supersedes the intents).
func (l *Log) ClearDev(dev int) {
	if !l.tracks(dev) {
		return
	}
	l.mu.Lock()
	if l.dirty[dev] != 0 || len(l.taken[dev]) > 0 {
		clear(l.bits[dev])
		l.dirty[dev] = 0
		l.taken[dev] = l.taken[dev][:0]
		l.gen++
	}
	l.mu.Unlock()
}

// AnyDirty reports whether any device has dirty regions.
func (l *Log) AnyDirty() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.dirty {
		if n > 0 {
			return true
		}
	}
	return false
}

// Gen reports the mutation generation: it changes whenever the log
// does, so a persistence loop can skip snapshots of an unchanged log.
func (l *Log) Gen() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// snapshotMagic guards snapshot decoding ("RXI1": RAID-x intents v1).
const snapshotMagic = 0x52584931

// MarshalBinary serializes the log: magic, geometry, then each device's
// bitset, regions a TakeDirty handed out and not yet replayed included.
// The format is fixed-size and self-describing enough for Merge
// to reject snapshots of a different geometry.
func (l *Log) MarshalBinary() ([]byte, error) {
	if l == nil {
		return nil, fmt.Errorf("intent: marshal of nil log")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	words := int64(0)
	if len(l.bits) > 0 {
		words = int64(len(l.bits[0]))
	}
	b := make([]byte, 0, 32+len(l.bits)*int(words)*8)
	b = binary.BigEndian.AppendUint32(b, snapshotMagic)
	b = binary.BigEndian.AppendUint32(b, uint32(len(l.bits)))
	b = binary.BigEndian.AppendUint64(b, uint64(l.deviceBlocks))
	b = binary.BigEndian.AppendUint64(b, uint64(l.regionBlocks))
	for dev, bits := range l.bits {
		taken := l.taken[dev]
		for i, w := range bits {
			if len(taken) > 0 {
				w |= taken[i]
			}
			b = binary.BigEndian.AppendUint64(b, w)
		}
	}
	return b, nil
}

// SaveTo durably writes the log's snapshot to path through fs (nil fs
// takes the real file system) with the full atomic discipline — temp
// file, fsync, rename, directory fsync — so a crash mid-save leaves the
// previous snapshot intact, never a torn one. This is how a node
// remembers its own dirty regions across a restart without asking the
// cluster.
func (l *Log) SaveTo(fs store.FS, path string) error {
	if fs == nil {
		fs = store.OS
	}
	snap, err := l.MarshalBinary()
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(fs, path, snap)
}

// LoadFrom merges the snapshot at path into the log. A missing file is
// not an error — there is simply nothing to recover.
func (l *Log) LoadFrom(fs store.FS, path string) error {
	if fs == nil {
		fs = store.OS
	}
	snap, err := store.ReadFileFS(fs, path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	return l.Merge(snap)
}

// Merge unions a snapshot produced by MarshalBinary into the log:
// regions dirty in either become dirty. Used at repair-host recovery to
// fold persisted intents back in; per-device geometry must match. A
// snapshot tracking FEWER devices than the log merges as a prefix —
// that is a snapshot taken before an online grow, and device indices
// are stable across grows.
func (l *Log) Merge(snap []byte) error {
	if l == nil {
		return fmt.Errorf("intent: merge into nil log")
	}
	if len(snap) < 24 {
		return fmt.Errorf("intent: short snapshot (%d bytes)", len(snap))
	}
	if binary.BigEndian.Uint32(snap[0:4]) != snapshotMagic {
		return fmt.Errorf("intent: bad snapshot magic")
	}
	devices := int(binary.BigEndian.Uint32(snap[4:8]))
	deviceBlocks := int64(binary.BigEndian.Uint64(snap[8:16]))
	regionBlocks := int64(binary.BigEndian.Uint64(snap[16:24]))
	l.mu.Lock()
	defer l.mu.Unlock()
	if devices > len(l.bits) || deviceBlocks != l.deviceBlocks || regionBlocks != l.regionBlocks {
		return fmt.Errorf("intent: snapshot geometry %dx%d/%d does not match log %dx%d/%d",
			devices, deviceBlocks, regionBlocks, len(l.bits), l.deviceBlocks, l.regionBlocks)
	}
	body := snap[24:]
	words := 0
	if devices > 0 {
		words = len(l.bits[0])
	}
	if len(body) != devices*words*8 {
		return fmt.Errorf("intent: snapshot body %d bytes, want %d", len(body), devices*words*8)
	}
	for dev := 0; dev < devices; dev++ {
		bitset := l.bits[dev]
		for w := 0; w < words; w++ {
			v := binary.BigEndian.Uint64(body[(dev*words+w)*8:])
			added := v &^ bitset[w]
			if added != 0 {
				bitset[w] |= added
				l.dirty[dev] += int64(bits.OnesCount64(added))
			}
		}
	}
	l.gen++
	return nil
}
