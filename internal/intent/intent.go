// Package intent implements a write-intent log: per array member, which
// physical blocks hold a copy that may be stale.
//
// A block is *missed* on a member when a write its peers took did not
// reach it: the engines mark it when they skip a down member at plan
// time, when the member's write fails, and when a write may be dropped
// without a word (a deferred image under a layout fence in flight). A
// *blank* member (a swapped-in spare, a device rebuilt in place) holds
// nothing: it is missed everywhere and serves no read until its rebuild
// commits. A missed block serves no read and supplies no repair source
// while a peer holds a fresh copy, from the mark until a repair job that
// took it commits it (TakeDirty, Release); marks made while a job runs
// survive that job. A returning device gets only its missed blocks
// replayed from the fresh copies, not the whole disk (cf. Thomasian's
// mirrored-array survey, arXiv:1801.08873). The log keeps one state per
// block, so a read knows which copy of a block is current however the
// misses of two members interleave. Over-marking missed costs a read a
// detour while a peer is fresh, never correctness, so every error path
// marks conservatively.
//
// A block is marked *ahead* before a write touches it when the engine
// runs md-style write-ahead intents. Ahead marks only ride snapshots:
// they route no read, start no repair, and age out (AgeAhead).
//
// The log serializes to a compact binary snapshot (MarshalBinary), one
// bit per region of regionBlocks blocks carrying any mark, that the
// repair supervisor persists, and merges snapshots as missed marks
// (Merge), so a restarted repair host resyncs every region a crash may
// have left torn. A recovered mark never makes a member blank.
//
// All methods are safe on a nil *Log (they discard marks and report
// nothing missed), following the internal/obs nil-safety idiom.
package intent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// DefaultRegionBlocks is the default snapshot granularity: one bit per
// 64 physical blocks (2 MiB at the common 32 KiB block size).
const DefaultRegionBlocks = 64

// Region is a contiguous run of physical blocks on one device.
type Region struct {
	Start int64 `json:"start"`
	Count int64 `json:"count"`
}

// A block's state on one device: any set of these marks.
const (
	missed = 1 << iota // the copy lost a write its peers took
	held               // missed, taken by a repair job that has not committed
	ahead              // a write was about to touch the block
	aged               // ahead, and untouched since the last AgeAhead
)

// device is one member's block states, its missed count, its blankness.
type device struct {
	st    []uint8
	n     atomic.Int64
	blank atomic.Bool
}

// Log is the write-intent log of one array: the state of every physical
// block of every member device.
type Log struct {
	mu           sync.Mutex // serializes changes of state
	regionBlocks int64      // snapshot granularity
	deviceBlocks int64
	// devs is replaced, never resized, by Grow, so a read checks a
	// device's missed count without mu; any is the sum of those counts.
	devs  atomic.Pointer[[]*device]
	any   atomic.Int64
	gen   uint64        // bumped on every change (persistence dirtiness)
	quiet atomic.Uint64 // a gen at which nothing was ahead
}

func (l *Log) load() []*device { return *l.devs.Load() }

// tracks reports whether the log — nil included — tracks device dev.
// Devices are only ever appended, so a yes stays true.
func (l *Log) tracks(dev int) bool { return l != nil && dev >= 0 && dev < len(l.load()) }

// NewLog creates a log for an array of devices, each deviceBlocks
// physical blocks, snapshotted at regionBlocks granularity (0 takes
// DefaultRegionBlocks).
func NewLog(devices int, deviceBlocks, regionBlocks int64) *Log {
	if regionBlocks <= 0 {
		regionBlocks = DefaultRegionBlocks
	}
	if devices < 0 || deviceBlocks < 0 {
		panic(fmt.Sprintf("intent: bad geometry %d x %d", devices, deviceBlocks))
	}
	l := &Log{regionBlocks: regionBlocks, deviceBlocks: deviceBlocks}
	l.devs.Store(&[]*device{})
	l.Grow(devices)
	return l
}

// Grow extends the log to track devices members, new ones clean. Indices
// are stable: an online grow appends devices, and a shrink's retired
// members keep their slot, clean.
func (l *Log) Grow(devices int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	devs := l.load()
	if devices <= len(devs) {
		return
	}
	devs = devs[:len(devs):len(devs)]
	for len(devs) < devices {
		devs = append(devs, &device{st: make([]uint8, l.deviceBlocks)})
	}
	l.devs.Store(&devs)
	l.gen++
}

// update sets each block of tracked device dev in [block, block+count),
// clamped to the device, to f of its state.
func (l *Log) update(dev int, block, count int64, f func(uint8) uint8) {
	if !l.tracks(dev) || count <= 0 {
		return
	}
	lo, hi := max(block, 0), min(block+count, l.deviceBlocks)
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.load()[dev]
	for b := lo; b < hi; b++ {
		l.set(d, b, f(d.st[b]))
	}
}

// set gives block b of d state st, counting it in and out of the missed.
// l.mu held.
func (l *Log) set(d *device, b int64, st uint8) {
	was := d.st[b]
	if was == st {
		return
	}
	d.st[b] = st
	l.gen++
	if n := int64(min(st&(missed|held), 1)) - int64(min(was&(missed|held), 1)); n != 0 {
		d.n.Add(n)
		l.any.Add(n)
	}
}

// MarkRange marks physical blocks [block, block+count) on device dev
// missed: that copy did not take a write its peers took. Out-of-range
// portions are clamped; a nil log discards the mark.
func (l *Log) MarkRange(dev int, block, count int64) {
	l.update(dev, block, count, func(st uint8) uint8 { return st | missed })
}

// MarkBlank marks every block of dev missed and the device blank: it
// holds nothing, and serves no read until a job's commit (Release).
func (l *Log) MarkBlank(dev int) {
	l.MarkRange(dev, 0, math.MaxInt64)
	if l.tracks(dev) {
		l.load()[dev].blank.Store(true)
	}
}

// MarkAhead marks physical blocks [block, block+count) on device dev as
// about to be written.
func (l *Log) MarkAhead(dev int, block, count int64) {
	l.update(dev, block, count, func(st uint8) uint8 { return st&^aged | ahead })
}

// AgeAhead drops every ahead mark no write renewed since the previous
// call, and ages the rest: called after each persist, it keeps a mark in
// the snapshots a poll interval past its write, which, as md does, it
// counts as landed once it returned.
func (l *Log) AgeAhead() {
	g := l.Gen()
	if l == nil || g == l.quiet.Load() {
		return // nothing ahead, and no change since
	}
	for dev := 0; l.tracks(dev); dev++ {
		l.update(dev, 0, math.MaxInt64, func(st uint8) uint8 {
			if st&aged != 0 {
				return st &^ (ahead | aged)
			}
			return st | st&ahead<<1 // aged is the bit above ahead
		})
	}
	if l.Gen() == g {
		l.quiet.Store(g)
	}
}

// Missed reports whether a block of dev in [block, block+count) is
// missed, or held by a repair job that has not committed it: whether
// that copy may be stale there. While no device has such a block it
// costs one atomic load, and no lock while dev has none.
func (l *Log) Missed(dev int, block, count int64) bool {
	if l == nil || l.any.Load() == 0 || !l.tracks(dev) || l.load()[dev].n.Load() == 0 {
		return false
	}
	lo, hi := max(block, 0), min(block+count, l.deviceBlocks)
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.load()[dev].st
	for b := lo; b < hi; b++ {
		if st[b]&(missed|held) != 0 {
			return true
		}
	}
	return false
}

// MissedBlocks reports how many blocks of dev are missed or held.
func (l *Log) MissedBlocks(dev int) int64 {
	if !l.tracks(dev) {
		return 0
	}
	return l.load()[dev].n.Load()
}

// Blank reports whether dev was marked blank and no job committed since.
func (l *Log) Blank(dev int) bool {
	return l != nil && l.any.Load() != 0 && l.tracks(dev) && l.load()[dev].blank.Load()
}

// TakeDirty hands a repair job dev's missed blocks, coalesced, those an
// earlier take handed out and no job committed included. They stay
// missed, for reads and in snapshots, until the job commits them
// (Release); marks made meanwhile survive the commit.
func (l *Log) TakeDirty(dev int) []Region {
	l.update(dev, 0, math.MaxInt64, func(st uint8) uint8 {
		if st&missed != 0 {
			return st&^missed | held
		}
		return st
	})
	return l.collect(dev, held)
}

// Release commits the blocks dev's last take handed out — the job has
// rewritten them from fresh copies — and ends dev's blankness.
func (l *Log) Release(dev int) {
	l.update(dev, 0, math.MaxInt64, func(st uint8) uint8 { return st &^ held })
	if l.tracks(dev) {
		l.load()[dev].blank.Store(false)
	}
}

// collect lists the runs of blocks of dev with a mark of mask.
func (l *Log) collect(dev int, mask uint8) []Region {
	if !l.tracks(dev) {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Region
	st := l.load()[dev].st
	for b := int64(0); b < int64(len(st)); b++ {
		if st[b]&mask == 0 {
			continue
		}
		start := b
		for b+1 < int64(len(st)) && st[b+1]&mask != 0 {
			b++
		}
		out = append(out, Region{Start: start, Count: b + 1 - start})
	}
	return out
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

// regions reports the number of snapshot regions per device.
func (l *Log) regions() int64 { return (l.deviceBlocks + l.regionBlocks - 1) / l.regionBlocks }

// MarshalBinary serializes the log: magic, geometry, then a bitset per
// device of the regions with a block that carries any mark — blocks a
// take handed out and no job committed included. The format is
// fixed-size and self-describing enough for Merge to reject snapshots of
// a different geometry.
func (l *Log) MarshalBinary() ([]byte, error) {
	if l == nil {
		return nil, fmt.Errorf("intent: marshal of nil log")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	devs, words := l.load(), (l.regions()+63)/64
	b := make([]byte, 24, 24+int64(len(devs))*words*8)
	binary.BigEndian.PutUint32(b, snapshotMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(len(devs)))
	binary.BigEndian.PutUint64(b[8:], uint64(l.deviceBlocks))
	binary.BigEndian.PutUint64(b[16:], uint64(l.regionBlocks))
	for _, d := range devs {
		bits := make([]uint64, words)
		for blk, st := range d.st {
			if r := int64(blk) / l.regionBlocks; st != 0 {
				bits[r/64] |= 1 << (r % 64)
			}
		}
		for _, w := range bits {
			b = binary.BigEndian.AppendUint64(b, w)
		}
	}
	return b, nil
}

// SaveTo durably writes the log's snapshot to path through fs (nil fs
// takes the real file system) with the full atomic discipline — temp
// file, fsync, rename, directory fsync — so a crash mid-save leaves the
// previous snapshot intact, never a torn one.
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

// Merge unions a snapshot produced by MarshalBinary into the log, every
// block of a region it lists as missed: after a crash nobody knows which
// copy of such a block is current, and a block missed on every copy
// reads, and repairs, from any readable one. Used at repair-host
// recovery to fold persisted intents back in; per-device geometry must
// match. A snapshot tracking FEWER devices than the log merges as a
// prefix — that is a snapshot taken before an online grow, and device
// indices are stable across grows.
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
	devs := l.load()
	if devices > len(devs) || deviceBlocks != l.deviceBlocks || regionBlocks != l.regionBlocks {
		return fmt.Errorf("intent: snapshot geometry %dx%d/%d does not match log %dx%d/%d",
			devices, deviceBlocks, regionBlocks, len(devs), l.deviceBlocks, l.regionBlocks)
	}
	body, words := snap[24:], int((l.regions()+63)/64)
	if len(body) != devices*words*8 {
		return fmt.Errorf("intent: snapshot body %d bytes, want %d", len(body), devices*words*8)
	}
	for dev, d := range devs[:devices] {
		for b := range d.st {
			if r := b / int(l.regionBlocks); binary.BigEndian.Uint64(body[(dev*words+r/64)*8:])&(1<<(r%64)) != 0 {
				l.set(d, int64(b), d.st[b]|missed)
			}
		}
	}
	l.gen++
	return nil
}
