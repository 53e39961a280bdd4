// Package fsim is a block file system built on any raid.Array — the
// layer the Andrew benchmark (paper Figure 6) exercises. Its design
// follows the paper's architecture: each client mounts the shared
// single-I/O-space array through its own FS instance (its own CDD
// view), and cross-client consistency comes from the CDD lock-group
// table: every mutating operation is one transaction under one lock
// group, acquired atomically (all-or-nothing) and never nested, which
// also makes deadlock impossible. Under its locks the transaction reads
// each metadata block from the array once and writes each changed block
// once, at commit (see tx).
//
// The volume is divided into allocation groups (ext2-style block
// groups): each group has its own inode bitmap, block bitmap, and inode
// table, and owns a contiguous slice of the data area. Clients prefer
// the group derived from their identity, so concurrent clients allocate
// from disjoint metadata blocks and different disk regions — the
// paper's lock-group table then serializes only genuine conflicts.
//
// On-disk layout (all sizes in blocks):
//
//	0                      superblock
//	per group g:           inode bitmap, block bitmap, inode table
//	dataStart ..           file data (group g owns its slice)
package fsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdd"
	"repro/internal/raid"
	"repro/internal/vclock"
)

const (
	magic      = 0x52584653 // "RXFS"
	inodeSize  = 128
	maxNameLen = 59
	direntSize = 64
	numDirect  = 12
	// Lock-space layout: group allocator locks, then one lock per
	// inode-table block (lockForInode).
	lockGroupBase = 0
	lockInodeBase = 1 << 10
	// mkfsChunk is how much of the metadata region Mkfs zeroes per
	// array call: large enough to stripe over every disk, small enough
	// for one frame per node over TCP.
	mkfsChunk = 256 << 10
)

// Common errors.
var (
	ErrNotExist    = errors.New("fsim: file does not exist")
	ErrExist       = errors.New("fsim: file already exists")
	ErrNotDir      = errors.New("fsim: not a directory")
	ErrIsDir       = errors.New("fsim: is a directory")
	ErrNotEmpty    = errors.New("fsim: directory not empty")
	ErrNoSpace     = errors.New("fsim: no space left on device")
	ErrNoInodes    = errors.New("fsim: out of inodes")
	ErrNameTooLong = errors.New("fsim: name too long")
	ErrBadFS       = errors.New("fsim: not a fsim file system")
)

// Locker is the consistency service: atomic all-or-nothing acquisition
// of lock-range groups, as provided by the CDD lock-group table.
type Locker interface {
	// Lock blocks until the whole group is granted to owner.
	Lock(ctx context.Context, owner string, rs []cdd.Range) error
	// Unlock releases the group.
	Unlock(ctx context.Context, owner string, rs []cdd.Range) error
}

// TableLocker adapts a cdd.Table to Locker, retrying with a virtual- or
// real-time sleep. Charge, when non-nil, is invoked once per lock and
// unlock operation to account for the messaging cost of reaching the
// table's coordinator.
type TableLocker struct {
	T      *cdd.Table
	Retry  time.Duration
	Charge func(ctx context.Context)
}

// NewTableLocker wraps a lock table with a default retry interval.
func NewTableLocker(t *cdd.Table) *TableLocker {
	return &TableLocker{T: t, Retry: 500 * time.Microsecond}
}

// Lock implements Locker.
func (l *TableLocker) Lock(ctx context.Context, owner string, rs []cdd.Range) error {
	for {
		if l.Charge != nil {
			l.Charge(ctx)
		}
		if l.T.TryAcquire(owner, rs) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if p, ok := vclock.From(ctx); ok {
			p.Sleep(l.Retry)
		} else {
			time.Sleep(l.Retry)
		}
	}
}

// Unlock implements Locker.
func (l *TableLocker) Unlock(ctx context.Context, owner string, rs []cdd.Range) error {
	if l.Charge != nil {
		l.Charge(ctx)
	}
	l.T.Release(owner, rs)
	return nil
}

// superblock describes the volume.
type superblock struct {
	Magic          uint32
	BlockSize      uint32
	Blocks         int64 // total logical blocks of the array
	Groups         uint32
	InodesPerGroup uint32
	GroupMetaLen   int64 // metadata blocks per group (2 bitmaps + table)
	DataStart      int64
	GroupSpan      int64 // data blocks owned by each group (last gets the tail)
}

func (sb *superblock) encode(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:], sb.Magic)
	binary.BigEndian.PutUint32(buf[4:], sb.BlockSize)
	binary.BigEndian.PutUint64(buf[8:], uint64(sb.Blocks))
	binary.BigEndian.PutUint32(buf[16:], sb.Groups)
	binary.BigEndian.PutUint32(buf[20:], sb.InodesPerGroup)
	binary.BigEndian.PutUint64(buf[24:], uint64(sb.GroupMetaLen))
	binary.BigEndian.PutUint64(buf[32:], uint64(sb.DataStart))
	binary.BigEndian.PutUint64(buf[40:], uint64(sb.GroupSpan))
}

func (sb *superblock) decode(buf []byte) error {
	sb.Magic = binary.BigEndian.Uint32(buf[0:])
	if sb.Magic != magic {
		return ErrBadFS
	}
	sb.BlockSize = binary.BigEndian.Uint32(buf[4:])
	sb.Blocks = int64(binary.BigEndian.Uint64(buf[8:]))
	sb.Groups = binary.BigEndian.Uint32(buf[16:])
	sb.InodesPerGroup = binary.BigEndian.Uint32(buf[20:])
	sb.GroupMetaLen = int64(binary.BigEndian.Uint64(buf[24:]))
	sb.DataStart = int64(binary.BigEndian.Uint64(buf[32:]))
	sb.GroupSpan = int64(binary.BigEndian.Uint64(buf[40:]))
	return nil
}

// maxInodes is the volume-wide inode count.
func (sb *superblock) maxInodes() uint32 { return sb.Groups * sb.InodesPerGroup }

// inodeBitmapBlk, blockBitmapBlk, and inodeTableStart locate group g's
// metadata.
func (sb *superblock) inodeBitmapBlk(g uint32) int64 {
	return 1 + int64(g)*sb.GroupMetaLen
}
func (sb *superblock) blockBitmapBlk(g uint32) int64 {
	return 1 + int64(g)*sb.GroupMetaLen + 1
}
func (sb *superblock) inodeTableStart(g uint32) int64 {
	return 1 + int64(g)*sb.GroupMetaLen + 2
}

// bitmapGroup reports the group whose inode or block bitmap block blk
// is, if it is one.
func (sb *superblock) bitmapGroup(blk int64) (uint32, bool) {
	if blk < 1 || blk >= sb.DataStart {
		return 0, false
	}
	return uint32((blk - 1) / sb.GroupMetaLen), (blk-1)%sb.GroupMetaLen < 2
}

// groupDataRange reports the data blocks owned by group g.
func (sb *superblock) groupDataRange(g uint32) (lo, hi int64) {
	lo = sb.DataStart + int64(g)*sb.GroupSpan
	hi = lo + sb.GroupSpan
	if g == sb.Groups-1 {
		hi = sb.Blocks
	}
	return lo, hi
}

// groupOfBlock reports which group owns data block b.
func (sb *superblock) groupOfBlock(b int64) uint32 {
	g := uint32((b - sb.DataStart) / sb.GroupSpan)
	if g >= sb.Groups {
		g = sb.Groups - 1
	}
	return g
}

// FS is one client's mount of the shared volume.
type FS struct {
	arr   raid.Array
	bs    int
	sb    superblock
	lock  Locker
	owner string
	seq   atomic.Uint64
	cache *blockCache
	// scratch pools one-block buffers (*[]byte of bs bytes), txs
	// transactions.
	scratch sync.Pool
	txs     sync.Pool
	// prefGroup is this mount's preferred allocation group, derived
	// from the owner identity so concurrent clients spread out.
	prefGroup uint32
}

// Options configure Mkfs.
type Options struct {
	// MaxInodes bounds the number of files; defaults to 4096. Rounded
	// up to a multiple of Groups.
	MaxInodes int
	// Groups is the number of allocation groups; defaults to 8.
	Groups int
	// CacheBlocks sizes the per-mount block cache; 0 means the default
	// of 64 blocks, negative disables caching.
	CacheBlocks int
}

// newCache builds a cache per the option value.
func newCache(capBlocks int) *blockCache {
	if capBlocks < 0 {
		return nil
	}
	if capBlocks == 0 {
		capBlocks = 64
	}
	return newBlockCache(capBlocks)
}

// Mkfs formats the array and returns a mounted FS. The owner string
// identifies this client in the lock table.
func Mkfs(ctx context.Context, arr raid.Array, lk Locker, owner string, opts Options) (*FS, error) {
	bs := arr.BlockSize()
	if bs < 512 {
		return nil, fmt.Errorf("fsim: block size %d too small", bs)
	}
	groups := opts.Groups
	if groups <= 0 {
		groups = 8
	}
	maxInodes := opts.MaxInodes
	if maxInodes <= 0 {
		maxInodes = 4096
	}
	perGroup := (maxInodes + groups - 1) / groups
	if perGroup > bs*8 {
		perGroup = bs * 8 // one bitmap block per group
	}
	tableLen := (int64(perGroup)*inodeSize + int64(bs) - 1) / int64(bs)
	metaLen := 2 + tableLen
	dataStart := 1 + int64(groups)*metaLen
	blocks := arr.Blocks()
	if dataStart+int64(groups) > blocks {
		return nil, fmt.Errorf("fsim: volume too small (%d blocks, %d needed for metadata)", blocks, dataStart)
	}
	span := (blocks - dataStart) / int64(groups)
	if span*8 > int64(bs)*8 {
		// One bitmap block per group caps the span.
		return nil, fmt.Errorf("fsim: group span %d exceeds one bitmap block (%d bits); use more groups", span, bs*8)
	}
	sb := superblock{
		Magic:          magic,
		BlockSize:      uint32(bs),
		Blocks:         blocks,
		Groups:         uint32(groups),
		InodesPerGroup: uint32(perGroup),
		GroupMetaLen:   metaLen,
		DataStart:      dataStart,
		GroupSpan:      span,
	}
	fs := &FS{arr: arr, bs: bs, sb: sb, lock: lk, owner: owner,
		cache: newCache(opts.CacheBlocks), prefGroup: hashGroup(owner, uint32(groups))}

	// Zero all metadata blocks, mkfsChunk bytes per array call.
	chunk := min(max(1, mkfsChunk/int64(bs)), dataStart-1)
	zero := make([]byte, chunk*int64(bs))
	for b := int64(1); b < dataStart; b += chunk {
		n := min(chunk, dataStart-b)
		if err := arr.WriteBlocks(ctx, b, zero[:n*int64(bs)]); err != nil {
			return nil, err
		}
	}
	// Write the superblock.
	buf := make([]byte, bs)
	sb.encode(buf)
	if err := arr.WriteBlocks(ctx, 0, buf); err != nil {
		return nil, err
	}
	// Create the root directory (inode 0, group 0). No other client
	// can hold the volume yet, so this transaction takes no locks.
	t := fs.begin(true)
	defer t.end()
	if err := fs.setInodeUsed(ctx, t, 0, true); err != nil {
		return nil, err
	}
	if err := fs.writeInode(ctx, t, 0, &inode{Mode: modeDir, Nlink: 1}); err != nil {
		return nil, err
	}
	if err := t.commit(ctx); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens an existing volume with default options.
func Mount(ctx context.Context, arr raid.Array, lk Locker, owner string) (*FS, error) {
	return MountOptions(ctx, arr, lk, owner, Options{})
}

// MountOptions opens an existing volume with explicit cache sizing
// (Groups and MaxInodes come from the superblock and are ignored).
func MountOptions(ctx context.Context, arr raid.Array, lk Locker, owner string, opts Options) (*FS, error) {
	bs := arr.BlockSize()
	buf := make([]byte, bs)
	if err := arr.ReadBlocks(ctx, 0, buf); err != nil {
		return nil, err
	}
	var sb superblock
	if err := sb.decode(buf); err != nil {
		return nil, err
	}
	if int(sb.BlockSize) != bs {
		return nil, fmt.Errorf("fsim: superblock block size %d != array %d", sb.BlockSize, bs)
	}
	return &FS{arr: arr, bs: bs, sb: sb, lock: lk, owner: owner,
		cache: newCache(opts.CacheBlocks), prefGroup: hashGroup(owner, sb.Groups)}, nil
}

// hashGroup maps an owner string to a preferred allocation group.
func hashGroup(owner string, groups uint32) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(owner); i++ {
		h = (h ^ uint32(owner[i])) * 16777619
	}
	return h % groups
}

// Flush drains the underlying array's deferred redundancy updates.
func (fs *FS) Flush(ctx context.Context) error { return fs.arr.Flush(ctx) }

// BlockSize reports the volume block size.
func (fs *FS) BlockSize() int { return fs.bs }

// txOwner mints a unique owner for one lock transaction, so concurrent
// operations from the same mount exclude each other too.
func (fs *FS) txOwner() string {
	return fmt.Sprintf("%s#%d", fs.owner, fs.seq.Add(1))
}

// withLocks runs fn as one transaction while atomically holding the
// given lock group, and commits it if fn returns nil. Every operation
// takes exactly one lock group: nothing nests.
func (fs *FS) withLocks(ctx context.Context, rs []cdd.Range, fn func(t *tx) error) error {
	owner := fs.txOwner()
	if err := fs.lock.Lock(ctx, owner, rs); err != nil {
		return err
	}
	defer fs.lock.Unlock(ctx, owner, rs)
	t := fs.begin(true)
	defer t.end()
	if err := fn(t); err != nil {
		return err
	}
	return t.commit(ctx)
}

// lockForInode covers inode ino's whole inode-table block, which it
// shares with its neighbours: the holder may read-modify-write that
// block, and operations on inodes sharing it serialize.
func (fs *FS) lockForInode(ino uint32) cdd.Range {
	blk, _ := fs.inodeLoc(ino)
	return cdd.Range{Start: lockInodeBase + uint64(blk), End: lockInodeBase + uint64(blk) + 1}
}

// lockForGroup protects group g's bitmaps (allocation and free).
func lockForGroup(g uint32) cdd.Range {
	return cdd.Range{Start: lockGroupBase + uint64(g), End: lockGroupBase + uint64(g) + 1}
}

// lockSet is one operation's lock group: the allocation groups and the
// table blocks of the inodes, each range once.
func (fs *FS) lockSet(groups []uint32, inos ...uint32) []cdd.Range {
	rs := make([]cdd.Range, 0, len(groups)+len(inos))
	for _, g := range groups {
		rs = append(rs, lockForGroup(g))
	}
	for _, ino := range inos {
		if r := fs.lockForInode(ino); !slices.Contains(rs, r) {
			rs = append(rs, r)
		}
	}
	return rs
}
