package cdd

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/trace"
)

// ErrStaleLease is returned by flush paths when the session's lease
// safety window has closed: committing the write-back buffer remotely
// could clobber a new owner's writes, so dirty blocks are held until
// the next successful heartbeat either renews the lease (flush
// proceeds) or reports it lost (dirty blocks are discarded).
var ErrStaleLease = errors.New("cdd: lease stale; write-back held")

// CachedDev wraps a RemoteDev with the session's coherent read cache
// and a write-back buffer with group commit. It implements raid.Dev,
// so a client array can be assembled from cached devices unchanged.
//
// Read path, per block: a dirty write-back block is served first
// (read-your-writes); then the cache, but only under a covering grant
// inside the lease safety window; contiguous misses go remote in one
// vectored call and are admitted to the cache when cacheable.
//
// Write path: blocks covered by a live exclusive grant are absorbed
// into the write-back buffer and group-committed, every contiguous run
// an extent of one multi-extent write — bounded by bytes
// (SessionConfig.WriteBackBytes, flushed inline), age (WriteBackAge,
// flushed by the heartbeat loop), and lock handoff (Session.Release
// flushes before the grant drops). Uncovered writes, and writes outside
// the lease safety window, pass straight through (writeThrough).
type CachedDev struct {
	s    *Session
	d    *RemoteDev
	disk uint32
	bs   int

	mu         sync.Mutex
	dirty      map[int64][]byte // bufpool-owned, one block each
	dirtyBytes int
	oldest     time.Time // arrival of the oldest unflushed block

	// flush scratch, reused across group commits
	blocksScratch []int64
	extsScratch   []Extent
	segsScratch   [][]byte
}

// Remote exposes the underlying RemoteDev.
func (c *CachedDev) Remote() *RemoteDev { return c.d }

// BlockSize reports the device block size in bytes.
func (c *CachedDev) BlockSize() int { return c.bs }

// NumBlocks reports the device capacity in blocks.
func (c *CachedDev) NumBlocks() int64 { return c.d.NumBlocks() }

// Healthy mirrors the remote device's health view.
func (c *CachedDev) Healthy() bool { return c.d.Healthy() }

// maxStackBlocks bounds the per-call hit mask kept on the stack; ops
// wider than this fall back to one heap mask allocation.
const maxStackBlocks = 64

// ReadBlocks fills buf from block b, serving write-back and cache hits
// locally and fetching contiguous miss runs in single remote calls.
func (c *CachedDev) ReadBlocks(ctx context.Context, b int64, buf []byte) error {
	if len(buf)%c.bs != 0 {
		return fmt.Errorf("cdd: read buffer %d not a multiple of block size %d", len(buf), c.bs)
	}
	n := len(buf) / c.bs
	if n == 0 {
		return nil
	}

	var maskArr [maxStackBlocks]bool
	var miss []bool
	if n <= maxStackBlocks {
		miss = maskArr[:n]
	} else {
		miss = make([]bool, n)
	}

	fresh := c.s.leaseFresh()
	anyMiss := false
	for i := 0; i < n; i++ {
		blk := b + int64(i)
		dst := buf[i*c.bs : (i+1)*c.bs]
		// The dirty buffer is served regardless of lease freshness: these
		// are this client's own buffered writes (read-your-writes), and a
		// confirmed lease loss discards them before this point.
		if c.getDirty(blk, dst) {
			continue
		}
		if fresh && c.s.holdsBlocks(c.disk, blk, 1, false) && c.s.cache.Get(c.disk, blk, dst) {
			continue
		}
		miss[i] = true
		anyMiss = true
	}
	if !anyMiss {
		return nil
	}

	for i := 0; i < n; {
		if !miss[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && miss[j] {
			j++
		}
		seg := buf[i*c.bs : j*c.bs]
		if err := c.d.ReadBlocks(ctx, b+int64(i), seg); err != nil {
			return err
		}
		if fresh {
			for k := i; k < j; k++ {
				blk := b + int64(k)
				if c.s.holdsBlocks(c.disk, blk, 1, false) {
					c.s.cache.Put(c.disk, blk, buf[k*c.bs:(k+1)*c.bs])
				}
			}
		}
		i = j
	}
	return nil
}

// getDirty serves block blk from the write-back buffer if dirty.
func (c *CachedDev) getDirty(blk int64, dst []byte) bool {
	c.mu.Lock()
	src, ok := c.dirty[blk]
	if ok {
		copy(dst, src)
	}
	c.mu.Unlock()
	return ok
}

// WriteBlocks writes data at block b: absorbed into write-back when an
// exclusive grant covers the span, written through otherwise.
func (c *CachedDev) WriteBlocks(ctx context.Context, b int64, data []byte) error {
	return c.write(ctx, b, data, false)
}

// WriteBlocksBackground makes the same choice: write-back *is* the
// background batching layer, and uncovered writes keep the remote
// fire-and-forget path.
func (c *CachedDev) WriteBlocksBackground(ctx context.Context, b int64, data []byte) error {
	return c.write(ctx, b, data, true)
}

// write is the one buffer-or-pass decision of both write paths: the
// span is buffered only inside the lease safety window and under a
// covering exclusive grant; otherwise it goes straight through, as a
// background extent when bg is set.
func (c *CachedDev) write(ctx context.Context, b int64, data []byte, bg bool) error {
	if len(data)%c.bs != 0 {
		return fmt.Errorf("cdd: write buffer %d not a multiple of block size %d", len(data), c.bs)
	}
	n := int64(len(data) / c.bs)
	if n == 0 {
		return nil
	}
	if !c.s.leaseFresh() || !c.s.holdsBlocks(c.disk, b, n, true) {
		return c.writeThrough(ctx, b, data, bg)
	}

	c.mu.Lock()
	now := time.Now()
	for i := int64(0); i < n; i++ {
		blk := b + i
		src := data[i*int64(c.bs) : (i+1)*int64(c.bs)]
		if buf, ok := c.dirty[blk]; ok {
			copy(buf, src)
			continue
		}
		buf := bufpool.Get(c.bs)
		copy(buf, src)
		c.dirty[blk] = buf
		c.dirtyBytes += c.bs
	}
	if c.oldest.IsZero() {
		c.oldest = now
	}
	var err error
	if c.dirtyBytes >= c.s.cfg.WriteBackBytes {
		err = c.flushLocked(ctx)
	}
	c.mu.Unlock()
	return err
}

// writeThrough sends a write straight to the remote device. No older
// local copy of its blocks may outlive it: cached blocks are dropped,
// and buffered ones take the new data once the write succeeded. c.mu is
// held across a write that has buffered blocks, so a flush cannot replay
// the old buffer over it; a failed write leaves the buffer as it was.
func (c *CachedDev) writeThrough(ctx context.Context, b int64, data []byte, bg bool) error {
	n := int64(len(data) / c.bs)
	defer c.s.cache.InvalidateBlocks(c.disk, b, n)
	c.mu.Lock()
	buffered := false
	for i := int64(0); i < n && len(c.dirty) > 0 && !buffered; i++ {
		_, buffered = c.dirty[b+i]
	}
	if buffered {
		defer c.mu.Unlock()
	} else {
		c.mu.Unlock()
	}
	if err := c.d.blockIO(ctx, OpWrite, []Extent{{Block: b, Blocks: uint32(n), BG: bg}}, [][]byte{data}); err != nil || !buffered {
		return err
	}
	for i := int64(0); i < n; i++ {
		if buf, ok := c.dirty[b+i]; ok {
			copy(buf, data[i*int64(c.bs):(i+1)*int64(c.bs)])
		}
	}
	return nil
}

// Flush group-commits the write-back buffer, then flushes the remote
// device.
func (c *CachedDev) Flush(ctx context.Context) error {
	if err := c.FlushWriteBack(ctx); err != nil {
		return err
	}
	return c.d.Flush(ctx)
}

// FlushWriteBack group-commits every dirty block without issuing a
// device-level flush.
func (c *CachedDev) FlushWriteBack(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked(ctx)
}

// flushIfOlder group-commits when the oldest dirty block predates cut.
func (c *CachedDev) flushIfOlder(cut time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.oldest.IsZero() || c.oldest.After(cut) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.s.n.policy.CallTimeout*4)
	_ = c.flushLocked(ctx) // kept dirty on error; retried next tick
	cancel()
}

// DirtyBlocks reports the number of unflushed write-back blocks.
func (c *CachedDev) DirtyBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dirty)
}

// flushLocked is the group commit: dirty blocks are sorted, coalesced
// into contiguous runs, and all runs written as the extents of one
// multi-extent write (consecutive ones when the batch outgrows
// maxExtents / maxExtentBytes). On success the committed buffers move
// into the read cache (still under our exclusive grant); on error every
// block of the failed write stays dirty for retry, since any of its
// extents may not have landed.
//
// Safety: a flush commits remotely only inside the lease safety window
// and only for runs still covered by a live exclusive grant. Outside
// the window the buffer is held (ErrStaleLease) — the ranges may have
// been re-granted to a new owner during a partition, and writing them
// on heal would be a lost update. Blocks whose grant is gone are
// discarded, matching the lease-loss path, and never sent; coverage is
// per block, so a run under two abutting grants is written whole.
func (c *CachedDev) flushLocked(ctx context.Context) (err error) {
	if len(c.dirty) == 0 {
		return nil
	}
	if !c.s.leaseFresh() {
		return ErrStaleLease
	}
	// The writer that trips the threshold pays for the whole batch: the
	// span makes that delay attributable in its trace.
	ctx, h := trace.Start(ctx, "sess.group-commit", c.d.subject)
	h.Val = int64(c.dirtyBytes)
	defer func() { h.End(err) }()

	blocks := c.blocksScratch[:0]
	for blk := range c.dirty {
		blocks = append(blocks, blk)
	}
	slices.Sort(blocks)
	c.blocksScratch = blocks

	maxBlocks := max(maxExtentBytes/c.bs, 1) // per write, so per run too
	c.extsScratch, c.segsScratch = c.extsScratch[:0], c.segsScratch[:0]
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 && j-i < maxBlocks {
			j++
		}
		held := c.s.holdsBlocks(c.disk, blocks[i], int64(j-i), true)
		if !held {
			// No one grant contains the run. Cut it where coverage changes:
			// blocks under abutting grants are still ours to write.
			held = c.s.holdsBlocks(c.disk, blocks[i], 1, true)
			end := j
			j = i + 1
			for j < end && c.s.holdsBlocks(c.disk, blocks[j], 1, true) == held {
				j++
			}
		}
		if !held {
			// Exclusive coverage lost since these blocks were buffered: a
			// new owner may hold the range, so the run must not be written.
			for _, blk := range blocks[i:j] {
				bufpool.Put(c.dirty[blk])
				delete(c.dirty, blk)
				c.dirtyBytes -= c.bs
			}
			c.s.met.wbErrors.Inc()
			i = j
			continue
		}
		if len(c.extsScratch) == maxExtents || len(c.segsScratch)+j-i > maxBlocks {
			if err := c.commit(ctx); err != nil {
				return err
			}
		}
		c.extsScratch = append(c.extsScratch, Extent{Block: blocks[i], Blocks: uint32(j - i)})
		for _, blk := range blocks[i:j] {
			c.segsScratch = append(c.segsScratch, c.dirty[blk])
		}
		i = j
	}
	if err := c.commit(ctx); err != nil {
		return err
	}
	c.oldest = time.Time{}
	return nil
}

// One group-commit write carries at most this many extents and this many
// bytes of blocks; a larger dirty set goes out as consecutive writes.
const (
	maxExtents     = 256
	maxExtentBytes = 1 << 20
)

// commit sends the gathered extents (segsScratch: their dirty buffers,
// one per block) as one write, then moves the blocks out of the dirty
// map, copying each into the read cache, and empties the gather lists.
func (c *CachedDev) commit(ctx context.Context) error {
	exts, segs := c.extsScratch, c.segsScratch
	if len(exts) == 0 {
		return nil
	}
	if err := c.d.WriteExtents(ctx, exts, segs); err != nil {
		c.s.met.wbErrors.Inc()
		return err
	}
	c.s.met.wbFlushes.Inc()
	c.s.met.wbBlocks.Add(int64(len(segs)))
	i := 0
	for _, e := range exts {
		for blk := e.Block; blk < e.Block+int64(e.Blocks); blk++ {
			delete(c.dirty, blk)
			c.dirtyBytes -= c.bs
			if c.s.leaseFresh() && c.s.holdsBlocks(c.disk, blk, 1, false) {
				c.s.cache.Put(c.disk, blk, segs[i])
			}
			bufpool.Put(segs[i])
			i++
		}
	}
	c.extsScratch, c.segsScratch = exts[:0], segs[:0]
	return nil
}

// discardWriteBack drops all dirty blocks without writing them — used
// on lease loss, when their ranges may already belong to a new owner.
func (c *CachedDev) discardWriteBack() {
	c.mu.Lock()
	for blk, buf := range c.dirty {
		bufpool.Put(buf)
		delete(c.dirty, blk)
	}
	c.dirtyBytes = 0
	c.oldest = time.Time{}
	c.mu.Unlock()
}
