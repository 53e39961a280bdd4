package cdd

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// lockDiskShift positions a disk index above the block number in the
// global lock space, so device-level block ranges and file-system
// region locks coexist in one table. Block b of disk d locks address
// d<<40 | b.
const lockDiskShift = 40

const lockBlockMask = (uint64(1) << lockDiskShift) - 1

// BlockLockRange maps count blocks starting at block of one disk into
// the global lock space.
func BlockLockRange(disk uint32, block, count int64) Range {
	base := uint64(disk) << lockDiskShift
	return Range{Start: base + uint64(block), End: base + uint64(block+count)}
}

// SessionConfig tunes a coherent client session; its read cache holds
// 4 MiB.
type SessionConfig struct {
	// WriteBackBytes is the dirty-byte threshold that triggers a group
	// commit (<= 0: 256 KiB).
	WriteBackBytes int
	// WriteBackAge bounds how long a dirty block may wait before the
	// heartbeat loop flushes it (<= 0: 20 ms).
	WriteBackAge time.Duration
	// Beat is the heartbeat interval (<= 0: the connection's
	// ProbeInterval). It must stay well under the server lease TTL or
	// grants expire mid-use.
	Beat time.Duration
	// Obs receives cache and session counters (nil: none).
	Obs *obs.Registry
}

func (c SessionConfig) withDefaults(pol RetryPolicy) SessionConfig {
	if c.WriteBackBytes <= 0 {
		c.WriteBackBytes = 256 << 10
	}
	if c.WriteBackAge <= 0 {
		c.WriteBackAge = 20 * time.Millisecond
	}
	if c.Beat <= 0 {
		c.Beat = pol.ProbeInterval
	}
	return c
}

type sessionMetrics struct {
	beats, beatErrs, revocations, leaseLost *obs.Counter
	wbFlushes, wbBlocks, wbErrors           *obs.Counter
}

// Session is one client's coherence context against a CDD lock
// service: it tracks the lock-group grants the owner holds, drives the
// heartbeat that keeps their lease alive, applies invalidation events
// to the local read cache, and hosts the write-back state of the
// CachedDevs created from it.
//
// The safety rule (DESIGN.md §13): a cached block may be served only
// while (a) a local grant covers it and (b) the last successful
// heartbeat was sent less than half the server lease TTL ago. A writer
// gets its exclusive grant only after every shared holder acked the
// revocation or outlived its lease — and an outlived holder has, by
// (b), already stopped serving hits.
type Session struct {
	n     *NodeClient
	owner string
	cfg   SessionConfig
	cache *BlockCache
	met   sessionMetrics

	mu      sync.Mutex
	shared  []Range
	excl    []Range
	lastSeq uint64
	devs    map[uint32]*CachedDev

	lastBeat atomic.Int64 // unix-nano at which the last successful heartbeat was sent
	ttl      atomic.Int64 // server lease term (ns); 0 = leases disabled
	ttlKnown atomic.Bool  // set once a Beat has reported the lease term

	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool
}

// NewSession opens a coherent session for owner against the node's
// lock service and starts its heartbeat loop. Close flushes, releases,
// and stops it.
func NewSession(n *NodeClient, owner string, cfg SessionConfig) *Session {
	cfg = cfg.withDefaults(n.policy)
	s := &Session{
		n:     n,
		owner: owner,
		cfg:   cfg,
		cache: NewBlockCache(4<<20, cfg.Obs),
		devs:  map[uint32]*CachedDev{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if r := cfg.Obs; r != nil {
		s.met = sessionMetrics{
			beats:       r.Counter("sess.beats"),
			beatErrs:    r.Counter("sess.beat_errors"),
			revocations: r.Counter("sess.revocations"),
			leaseLost:   r.Counter("sess.lease_lost"),
			wbFlushes:   r.Counter("sess.wb_flushes"),
			wbBlocks:    r.Counter("sess.wb_blocks"),
			wbErrors:    r.Counter("sess.wb_errors"),
		}
	}
	s.lastBeat.Store(time.Now().UnixNano())
	// Synchronous first beat: learn the server's lease term before any
	// grant is acquired. Until a beat succeeds the lease term is unknown
	// and leaseFresh() refuses to serve cached state, so a client that
	// partitions before ever hearing a TTL never serves unbounded-stale
	// hits. A failure here is tolerated — the loop below keeps trying.
	s.beatOnce()
	go s.beatLoop()
	return s
}

// Owner reports the session's lock-owner identity.
func (s *Session) Owner() string { return s.owner }

// Cache exposes the session's read cache (introspection, tests).
func (s *Session) Cache() *BlockCache { return s.cache }

// Dev wraps the node's i-th disk as a coherently-cached device. One
// CachedDev exists per disk per session; repeated calls return it.
func (s *Session) Dev(i int) *CachedDev {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.devs[uint32(i)]; ok {
		return d
	}
	rd := s.n.Dev(i)
	cd := &CachedDev{
		s:     s,
		d:     rd,
		disk:  uint32(i),
		bs:    rd.BlockSize(),
		dirty: map[int64][]byte{},
	}
	s.devs[uint32(i)] = cd
	return cd
}

// Acquire obtains a lock-group grant covering rs in the given mode,
// retrying until granted or ctx expires, and records it locally so
// covered blocks become cacheable.
func (s *Session) Acquire(ctx context.Context, mode Mode, rs []Range) error {
	if err := s.n.LockMode(ctx, s.owner, mode, rs); err != nil {
		return err
	}
	s.mu.Lock()
	if mode == Exclusive {
		s.excl = append(s.excl, rs...)
	} else {
		s.shared = append(s.shared, rs...)
	}
	s.mu.Unlock()
	return nil
}

// AcquireBlocks is Acquire over one disk's block range.
func (s *Session) AcquireBlocks(ctx context.Context, mode Mode, disk uint32, block, count int64) error {
	return s.Acquire(ctx, mode, []Range{BlockLockRange(disk, block, count)})
}

// Release flushes dirty blocks under rs (the lock-handoff flush that
// keeps write-back coherent), drops the covered cache entries, and
// releases the grant.
func (s *Session) Release(ctx context.Context, rs []Range) error {
	if err := s.flushRanges(ctx, rs); err != nil {
		return err
	}
	s.mu.Lock()
	s.shared = dropExact(s.shared, rs)
	s.excl = dropExact(s.excl, rs)
	s.mu.Unlock()
	s.invalidateRanges(rs)
	return s.n.Unlock(ctx, s.owner, rs)
}

// ReleaseBlocks is Release over one disk's block range.
func (s *Session) ReleaseBlocks(ctx context.Context, disk uint32, block, count int64) error {
	return s.Release(ctx, []Range{BlockLockRange(disk, block, count)})
}

// Flush group-commits every dirty block of every device.
func (s *Session) Flush(ctx context.Context) error {
	for _, cd := range s.cachedDevs() {
		if err := cd.FlushWriteBack(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes, releases every grant, stops the heartbeat, and drops
// the cache. The NodeClient stays open (it is shared).
func (s *Session) Close() error {
	var err error
	if !s.stopped.Swap(true) {
		close(s.stop)
		<-s.done
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.Flush(ctx)
		cancel()
		s.mu.Lock()
		held := len(s.shared)+len(s.excl) > 0
		s.shared, s.excl = nil, nil
		s.mu.Unlock()
		if held {
			if uerr := s.n.UnlockAll(s.owner); err == nil {
				err = uerr
			}
		}
		s.cache.InvalidateAll()
	}
	return err
}

// cachedDevs snapshots the device map.
func (s *Session) cachedDevs() []*CachedDev {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*CachedDev, 0, len(s.devs))
	for _, cd := range s.devs {
		out = append(out, cd)
	}
	return out
}

// leaseFresh reports whether cached state may be served: the last
// successful heartbeat must have been sent less than half the server
// lease TTL ago (the safety window — strictly inside the server's
// expiry, which runs from when the server processed that beat, so an
// expired-and-auto-released holder has already stopped serving hits).
// Until the first successful beat reports the lease term the answer is
// false — assuming "no lease" before hearing otherwise would let a
// client that partitions immediately after acquiring grants serve hits
// with no staleness bound.
func (s *Session) leaseFresh() bool {
	if !s.ttlKnown.Load() {
		return false
	}
	ttl := s.ttl.Load()
	if ttl == 0 {
		return true // server runs with leases disabled
	}
	return time.Now().UnixNano()-s.lastBeat.Load() < ttl/2
}

// holdsBlocks reports whether a local grant covers the block span —
// any mode for reads (wantWrite=false), exclusive only for writes.
func (s *Session) holdsBlocks(disk uint32, block, count int64, wantWrite bool) bool {
	r := BlockLockRange(disk, block, count)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.excl {
		if g.contains(r) {
			return true
		}
	}
	if wantWrite {
		return false
	}
	for _, g := range s.shared {
		if g.contains(r) {
			return true
		}
	}
	return false
}

// beatLoop is the session's background heartbeat: one coherence beat
// per interval, then aged write-back batches are flushed. The beat runs
// FIRST so lease loss is discovered before any flush — flushing stale
// dirty blocks after a partition would clobber a new owner's writes.
func (s *Session) beatLoop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Beat)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.beatOnce()
		s.flushAged()
	}
}

// flushAged group-commits write-back batches older than WriteBackAge.
func (s *Session) flushAged() {
	cut := time.Now().Add(-s.cfg.WriteBackAge)
	for _, cd := range s.cachedDevs() {
		cd.flushIfOlder(cut)
	}
}

// beatOnce performs one heartbeat exchange and applies its outcome.
func (s *Session) beatOnce() {
	s.mu.Lock()
	lastSeq := s.lastSeq
	heldAny := len(s.shared)+len(s.excl) > 0
	s.mu.Unlock()

	// The server renews the lease when it processes the beat, which is no
	// earlier than this instant; the reply may come back much later, and
	// a retried beat keeps its first attempt's send time.
	sent := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Beat*4+s.n.policy.CallTimeout)
	br, err := s.n.Beat(ctx, s.owner, lastSeq)
	cancel()
	if err != nil {
		// No renewal: lastBeat ages, the lease safety window closes, and
		// reads fall back to remote — fail-safe, never fail-stale.
		s.met.beatErrs.Inc()
		return
	}
	s.met.beats.Inc()

	if heldAny && !br.Known {
		// Lease lost (expired while we were partitioned): our grants are
		// gone server-side. Drop everything local; dirty blocks are
		// discarded — their ranges may already have a new owner.
		s.met.leaseLost.Inc()
		s.mu.Lock()
		s.shared, s.excl = nil, nil
		s.mu.Unlock()
		for _, cd := range s.cachedDevs() {
			cd.discardWriteBack()
		}
		s.cache.InvalidateAll()
	}
	if br.Reset {
		// We fell off the event ring: treat every cached block and every
		// shared grant as suspect.
		s.mu.Lock()
		s.shared = nil
		s.mu.Unlock()
		s.cache.InvalidateAll()
	}
	for _, ev := range br.Events {
		if ev.Owner == s.owner {
			continue
		}
		s.applyInvalidation(ev)
	}

	s.mu.Lock()
	if br.Seq > s.lastSeq {
		s.lastSeq = br.Seq
	}
	s.mu.Unlock()
	s.ttl.Store(int64(br.TTL))
	s.ttlKnown.Store(true)
	// Published last: a hit is only served once the events above are
	// fully applied.
	s.lastBeat.Store(sent.UnixNano())
}

// applyInvalidation drops cache entries and revoked shared grants
// covered by one event.
func (s *Session) applyInvalidation(ev Invalidation) {
	s.invalidateRanges(ev.Ranges)
	s.mu.Lock()
	kept := s.shared[:0]
	revoked := 0
	for _, g := range s.shared {
		if overlapsAny(ev.Ranges, []Range{g}) {
			revoked++
		} else {
			kept = append(kept, g)
		}
	}
	s.shared = kept
	s.mu.Unlock()
	if revoked > 0 {
		s.met.revocations.Add(int64(revoked))
	}
}

// invalidateRanges maps lock-space ranges back to per-disk block spans
// and drops them from the cache.
func (s *Session) invalidateRanges(rs []Range) {
	for _, r := range rs {
		firstDisk := uint32(r.Start >> lockDiskShift)
		lastDisk := uint32((r.End - 1) >> lockDiskShift)
		if lastDisk-firstDisk > 16 {
			// A range sweeping many disks: cheaper to drop everything.
			s.cache.InvalidateAll()
			return
		}
		for d := firstDisk; d <= lastDisk; d++ {
			lo := uint64(d) << lockDiskShift
			hi := lo + lockBlockMask + 1
			start, end := r.Start, r.End
			if start < lo {
				start = lo
			}
			if end > hi {
				end = hi
			}
			if end > start {
				s.cache.InvalidateBlocks(d, int64(start-lo), int64(end-start))
			}
		}
	}
}

// flushRanges group-commits dirty blocks of any device overlapping rs.
func (s *Session) flushRanges(ctx context.Context, rs []Range) error {
	for _, cd := range s.cachedDevs() {
		devRange := BlockLockRange(cd.disk, 0, cd.d.NumBlocks())
		if overlapsAny(rs, []Range{devRange}) {
			if err := cd.FlushWriteBack(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}
