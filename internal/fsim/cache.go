package fsim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/vclock"
)

// blockCache is a per-mount block cache, standing in for the client
// buffer cache every 1999 system had. Coherence policy (NFS-style
// close-to-open weakened to a TTL, like `actimeo`):
//
//   - It holds metadata (inode-table, bitmap, indirect and directory
//     blocks) and the partial head or tail block of a data transfer.
//     Runs of whole data blocks go straight between the caller's buffer
//     and the array (see readData / writeData), so streaming a file
//     does not evict the metadata the cache is there for.
//   - Every operation reads its blocks through one transaction (tx):
//     a block is fetched once per operation. A mutating operation's
//     transaction runs under its lock group and fetches every block
//     from the array, past this cache, so decisions made under the
//     locks see fresh on-disk state. Its dirty blocks reach the array
//     at commit, and each block the commit writes replaces the cached
//     copy, so a client always sees its own writes immediately; a
//     whole-block run that goes past the cache drops the copies it
//     replaces.
//   - Unlocked (optimistic) reads may serve cached blocks for up to TTL
//     after they were fetched; within that window they can be stale
//     with respect to *other* clients. That is exactly the weak read
//     consistency the FS design already tolerates, because every
//     mutating operation re-reads its metadata under its locks.
//
// Eviction is FIFO over a fixed number of blocks.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration
	data  map[int64]*cacheEntry
	order []int64
}

type cacheEntry struct {
	data []byte
	// filledAt is the fill timestamp on the clock identified by virt;
	// entries filled on one clock never satisfy reads on the other.
	filledAt time.Duration
	virt     bool
}

const defaultCacheTTL = 2 * time.Second

func newBlockCache(capBlocks int) *blockCache {
	return &blockCache{cap: capBlocks, ttl: defaultCacheTTL, data: map[int64]*cacheEntry{}}
}

// clockOf samples the context's clock: virtual when a vclock process is
// attached, wall time otherwise.
func clockOf(ctx context.Context) (time.Duration, bool) {
	if p, ok := vclock.From(ctx); ok {
		return p.Now(), true
	}
	return time.Duration(time.Now().UnixNano()), false
}

func (c *blockCache) get(ctx context.Context, blk int64, dst []byte) bool {
	if c == nil {
		return false
	}
	now, virt := clockOf(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.data[blk]
	if !ok || e.virt != virt || now-e.filledAt > c.ttl {
		return false
	}
	copy(dst, e.data)
	return true
}

func (c *blockCache) put(ctx context.Context, blk int64, src []byte) {
	if c == nil {
		return
	}
	now, virt := clockOf(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.data[blk]; ok {
		copy(e.data, src)
		e.filledAt = now
		e.virt = virt
		return
	}
	for len(c.order) >= c.cap {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.data, victim)
	}
	cp := make([]byte, len(src))
	copy(cp, src)
	c.data[blk] = &cacheEntry{data: cp, filledAt: now, virt: virt}
	c.order = append(c.order, blk)
}

// drop forgets blocks [blk, blk+n), which a write that went past the
// cache has just replaced on the array.
func (c *blockCache) drop(blk int64, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.order[:0]
	for _, b := range c.order {
		if b >= blk && b < blk+int64(n) {
			delete(c.data, b)
		} else {
			kept = append(kept, b)
		}
	}
	c.order = kept
}

// getBlock hands out one block of scratch whose contents are undefined;
// putBlock takes it back once nothing refers to it.
func (fs *FS) getBlock() *[]byte {
	if bp, ok := fs.scratch.Get().(*[]byte); ok {
		return bp
	}
	b := make([]byte, fs.bs)
	return &b
}

func (fs *FS) putBlock(bp *[]byte) { fs.scratch.Put(bp) }

// tx is one operation's view of the volume: every block it reads is
// fetched at most once and kept until end, and every block it changes
// is written once, at commit. A transaction that fails before commit
// leaves the array as it found it, apart from the whole-block data runs
// writeData sends straight to the array so that data lands before the
// metadata that points to it.
//
// Commit writes blocks this transaction allocated (zero) first, since
// nothing on the array points to them yet, then the rest in the order
// they were first dirtied. Operations rely on that order for crash
// consistency: an allocating operation dirties its bitmaps before the
// inode and the directory entry that make the new blocks reachable, and
// a freeing one dirties the entry and the inode before the bitmaps, so
// a cut commit leaves only leaks, which Repair releases.
type tx struct {
	fs *FS
	// fresh sends the first read of each block to the array instead of
	// the mount cache: under locks, and for Fsck.
	fresh bool
	blks  []txBlock // sorted by block number
	// order lists the dirty blocks in commit order: the first nzero
	// were allocated by this transaction, the rest follow in the order
	// they were first dirtied.
	order []int64
	nzero int
	stage []byte // gathers a multi-block read or write
}

type txBlock struct {
	blk   int64
	buf   *[]byte
	dirty bool
}

// begin hands out an empty transaction from the mount's pool.
func (fs *FS) begin(fresh bool) *tx {
	t, _ := fs.txs.Get().(*tx)
	if t == nil {
		t = &tx{fs: fs}
	}
	t.fresh = fresh
	return t
}

// end drops whatever the transaction still holds and returns it to the
// pool; call it after commit, or in place of commit to abandon it.
func (t *tx) end() {
	for _, b := range t.blks {
		t.fs.putBlock(b.buf)
	}
	clear(t.blks)
	t.blks, t.order, t.nzero = t.blks[:0], t.order[:0], 0
	t.fs.txs.Put(t)
}

// find reports where block blk is, or would go, in t.blks.
func (t *tx) find(blk int64) (int, bool) {
	return slices.BinarySearchFunc(t.blks, blk, func(b txBlock, blk int64) int { return cmp.Compare(b.blk, blk) })
}

func (t *tx) staging(n int) []byte {
	if cap(t.stage) < n*t.fs.bs {
		t.stage = make([]byte, n*t.fs.bs)
	}
	return t.stage[:n*t.fs.bs]
}

// bread returns the transaction's copy of block blk, valid until end;
// a caller that changes it calls bwrite. The first read fetches the
// block from the array, or from the mount cache when the transaction is
// not fresh and the cache holds it; what the array returns is cached. A
// group's two bitmaps are adjacent and covered by the same group lock,
// so reading either fetches both in one call.
func (t *tx) bread(ctx context.Context, blk int64) ([]byte, error) {
	i, ok := t.find(blk)
	if ok {
		return *t.blks[i].buf, nil
	}
	fs := t.fs
	first, n := blk, 1
	if g, ok := fs.sb.bitmapGroup(blk); ok {
		first, n = fs.sb.inodeBitmapBlk(g), 2
	}
	p := t.staging(n)
	hit := !t.fresh
	for b := 0; hit && b < n; b++ {
		hit = fs.cache.get(ctx, first+int64(b), p[b*fs.bs:(b+1)*fs.bs])
	}
	if !hit {
		if err := fs.arr.ReadBlocks(ctx, first, p); err != nil {
			return nil, err
		}
	}
	// Bitmaps enter a transaction only as a pair, so none of these is
	// held yet.
	for b := 0; b < n; b++ {
		bp := fs.getBlock()
		copy(*bp, p[b*fs.bs:])
		if !hit {
			fs.cache.put(ctx, first+int64(b), *bp)
		}
		i, _ = t.find(first + int64(b))
		t.blks = slices.Insert(t.blks, i, txBlock{blk: first + int64(b), buf: bp})
	}
	i, _ = t.find(blk)
	return *t.blks[i].buf, nil
}

// zero returns a zeroed copy of block blk, which this transaction has
// just allocated, without reading it, and marks it dirty.
func (t *tx) zero(blk int64) []byte {
	i, ok := t.find(blk)
	if !ok {
		t.blks = slices.Insert(t.blks, i, txBlock{blk: blk, buf: t.fs.getBlock()})
	}
	b := &t.blks[i]
	clear(*b.buf)
	if !b.dirty {
		b.dirty = true
		t.order = slices.Insert(t.order, t.nzero, blk)
		t.nzero++
	}
	return *b.buf
}

// bwrite marks block blk, which the caller changed in place after
// bread, dirty. Marking either bitmap of a group marks both, so the
// pair stays one run at commit.
func (t *tx) bwrite(blk int64) {
	if g, ok := t.fs.sb.bitmapGroup(blk); ok {
		first := t.fs.sb.inodeBitmapBlk(g)
		t.mark(first)
		t.mark(first + 1)
		return
	}
	t.mark(blk)
}

func (t *tx) mark(blk int64) {
	i, ok := t.find(blk)
	if !ok {
		panic(fmt.Sprintf("fsim: block %d written without being read", blk))
	}
	if !t.blks[i].dirty {
		t.blks[i].dirty = true
		t.order = append(t.order, blk)
	}
}

// drop forgets blocks [first, first+n), which a whole-block data run
// has just replaced on the array, here and in the mount cache.
func (t *tx) drop(first int64, n int) {
	t.fs.cache.drop(first, n)
	for blk := first; blk < first+int64(n); blk++ {
		i, ok := t.find(blk)
		if !ok {
			continue
		}
		t.fs.putBlock(t.blks[i].buf)
		t.blks = slices.Delete(t.blks, i, i+1)
		if k := slices.Index(t.order, blk); k >= 0 {
			t.order = slices.Delete(t.order, k, k+1)
			if k < t.nzero {
				t.nzero--
			}
		}
	}
}

// commit writes the dirty blocks in commit order, one array call per
// run of consecutive block numbers, and caches each run once written.
func (t *tx) commit(ctx context.Context) error {
	fs := t.fs
	for k := 0; k < len(t.order); {
		first, n := t.order[k], 1
		for k+n < len(t.order) && t.order[k+n] == first+int64(n) {
			n++
		}
		p := t.staging(n)
		for b := 0; b < n; b++ {
			i, _ := t.find(first + int64(b))
			copy(p[b*fs.bs:], *t.blks[i].buf)
		}
		if err := fs.arr.WriteBlocks(ctx, first, p); err != nil {
			return err
		}
		for b := 0; b < n; b++ {
			fs.cache.put(ctx, first+int64(b), p[b*fs.bs:(b+1)*fs.bs])
		}
		k += n
	}
	return nil
}
