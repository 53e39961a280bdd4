package fsim

import (
	"context"
	"sync"
	"time"

	"repro/internal/vclock"
)

// blockCache is a per-mount write-through block cache, standing in for
// the client buffer cache every 1999 system had. Coherence policy
// (NFS-style close-to-open weakened to a TTL, like `actimeo`):
//
//   - It holds metadata (inode-table, bitmap, indirect and directory
//     blocks) and the partial head or tail block of a data transfer.
//     Runs of whole data blocks go straight between the caller's buffer
//     and the array (see readData / writeData), so streaming a file
//     does not evict the metadata the cache is there for.
//   - Cached writes go through to the array and update the local copy,
//     and a write that goes past the cache drops the copies it
//     replaces, so a client always sees its own writes immediately.
//   - Unlocked (optimistic) reads may serve cached blocks for up to TTL
//     after they were fetched; within that window they can be stale
//     with respect to *other* clients. That is exactly the weak read
//     consistency the FS design already tolerates, because every
//     mutating operation re-reads its metadata under the lock-group
//     table with the cache bypassed (see noCache / withLocks).
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

type noCacheKey struct{}

// noCache reports whether ctx demands fresh reads (inside lock-group
// critical sections).
func noCache(ctx context.Context) bool {
	v, _ := ctx.Value(noCacheKey{}).(bool)
	return v
}

// withNoCache marks ctx so reads bypass the block cache.
func withNoCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, noCacheKey{}, true)
}

// bread reads one logical block, serving it from the cache when the
// context allows.
func (fs *FS) bread(ctx context.Context, blk int64, buf []byte) error {
	if !noCache(ctx) && fs.cache.get(ctx, blk, buf) {
		return nil
	}
	if err := fs.arr.ReadBlocks(ctx, blk, buf); err != nil {
		return err
	}
	fs.cache.put(ctx, blk, buf)
	return nil
}

// bwrite writes one logical block through the cache.
func (fs *FS) bwrite(ctx context.Context, blk int64, data []byte) error {
	if err := fs.arr.WriteBlocks(ctx, blk, data); err != nil {
		return err
	}
	fs.cache.put(ctx, blk, data)
	return nil
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
