package cdd

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
)

// BlockCache is a per-client read cache over remote blocks: a bounded
// LRU keyed by (disk, block). Its bytes live outside the Go heap, in one
// store.Mem of ⌊max / bs⌋ slots that the first insert maps (bs is that
// block's size; a block of another size is not cached), so the collector
// neither scans them nor counts them toward its goal. Each slot has one
// entry, allocated with the mapping, so churn allocates nothing. A full
// cache admits a new block only if recent lookups rate it above the LRU
// block it would evict (TinyLFU), so a stream of one-touch misses cannot
// flush the hot set. It holds bytes only — coherence (when an entry may
// be *served*) is the Session's job: a hit is valid only under a live
// lock-group grant within the lease safety window (DESIGN.md §13).
type BlockCache struct {
	mu   sync.Mutex
	max  int64
	mem  *store.Mem  // the slots; nil until the first insert
	free *cacheEntry // entries whose slot holds no block, linked by next
	m    map[cacheKey]*cacheEntry
	lru  cacheEntry // ring sentinel: lru.next = most recent, lru.prev = least
	freq sketch

	hits, misses, evicts, rejects, invals *obs.Counter
}

type cacheKey struct {
	disk  uint32
	block int64
}

type cacheEntry struct {
	key        cacheKey
	slot       int64 // its block in mem
	prev, next *cacheEntry
}

// NewBlockCache creates a cache bounded to maxBytes of block payloads
// (<= 0 takes 4 MiB). reg, when non-nil, receives the sess.cache_*
// hit/miss/eviction/admission-reject/invalidation counters, a size
// gauge, and a sess.cache_hit_ratio_pct gauge (hits per hundred lookups,
// lifetime).
func NewBlockCache(maxBytes int64, reg *obs.Registry) *BlockCache {
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	c := &BlockCache{max: maxBytes, m: make(map[cacheKey]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	if reg != nil {
		c.hits = reg.Counter("sess.cache_hits")
		c.misses = reg.Counter("sess.cache_misses")
		c.evicts = reg.Counter("sess.cache_evictions")
		c.rejects = reg.Counter("sess.cache_admit_rejects")
		c.invals = reg.Counter("sess.cache_invalidations")
		reg.RegisterGauge("sess.cache_bytes", c.Bytes)
		reg.RegisterGauge("sess.cache_hit_ratio_pct", func() int64 {
			h, m := c.hits.Value(), c.misses.Value()
			if h+m == 0 {
				return 0
			}
			return h * 100 / (h + m)
		})
	}
	return c
}

// Get copies the cached block (disk, block) into dst and reports
// whether it was present. dst must be exactly one block. Every lookup,
// hit or miss, counts towards the block's admission frequency.
func (c *BlockCache) Get(disk uint32, block int64, dst []byte) bool {
	key := cacheKey{disk: disk, block: block}
	c.mu.Lock()
	if c.freq.words == nil {
		c.freq.init(c.max / int64(max(len(dst), 1)))
	}
	c.freq.add(key)
	ent := c.m[key]
	if ent == nil || len(dst) != c.mem.BlockSize() {
		c.mu.Unlock()
		c.misses.Inc()
		return false
	}
	c.mem.ReadBlock(ent.slot, dst) // sized and in range: cannot fail
	detach(ent)
	c.pushFrontLocked(ent)
	c.mu.Unlock()
	c.hits.Inc()
	return true
}

// Put stores a copy of data (exactly one block) under (disk, block),
// evicting the LRU entry when every slot is taken — or drops it, when
// the admission check turns it away or its size is not the slots'.
func (c *BlockCache) Put(disk uint32, block int64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := int64(len(data)); c.mem == nil && n > 0 && n <= c.max {
		c.mem = store.NewMem(len(data), c.max/n)
		ents := make([]cacheEntry, c.mem.NumBlocks())
		for i := range ents {
			ents[i].slot, ents[i].next, c.free = int64(i), c.free, &ents[i]
		}
	}
	if c.mem == nil || len(data) != c.mem.BlockSize() {
		c.rejects.Inc()
		return
	}
	if ent := c.insertLocked(cacheKey{disk: disk, block: block}); ent != nil {
		c.mem.WriteBlock(ent.slot, data) // sized and in range: cannot fail
	}
}

// insertLocked links an entry for key at the front and returns it, for
// the caller to fill its slot: the key's own entry, a free one, or the
// evicted LRU entry. It returns nil, changing nothing, when key is new,
// no slot is free, and key is not looked up more often than the LRU
// block: a cached key is always replaced, so a rejection never leaves a
// stale copy behind.
func (c *BlockCache) insertLocked(key cacheKey) *cacheEntry {
	ent := c.m[key]
	switch {
	case ent != nil:
		detach(ent)
	case c.free != nil:
		ent, c.free = c.free, c.free.next
	case c.freq.estimate(key) <= c.freq.estimate(c.lru.prev.key):
		c.rejects.Inc()
		return nil
	default:
		ent = c.lru.prev
		c.unlinkLocked(ent)
		c.evicts.Inc()
	}
	ent.key = key
	c.pushFrontLocked(ent)
	c.m[key] = ent
	return ent
}

// pushFrontLocked links ent into the LRU ring as the most recent.
func (c *BlockCache) pushFrontLocked(ent *cacheEntry) {
	ent.prev, ent.next = &c.lru, c.lru.next
	ent.prev.next, ent.next.prev = ent, ent
}

// detach takes ent out of the LRU ring.
func detach(ent *cacheEntry) { ent.prev.next, ent.next.prev = ent.next, ent.prev }

// unlinkLocked takes ent out of the ring and the map; it keeps its slot.
func (c *BlockCache) unlinkLocked(ent *cacheEntry) {
	detach(ent)
	delete(c.m, ent.key)
}

// removeLocked unlinks ent and frees its slot.
func (c *BlockCache) removeLocked(ent *cacheEntry) {
	c.unlinkLocked(ent)
	ent.next, c.free = c.free, ent
}

// InvalidateBlocks drops the cached blocks [start, start+count) of one
// disk.
func (c *BlockCache) InvalidateBlocks(disk uint32, start, count int64) {
	c.mu.Lock()
	n := 0
	if count > int64(len(c.m)) {
		// Wide invalidation (e.g. a whole-disk range): scan entries, not
		// blocks.
		for key, ent := range c.m {
			if key.disk == disk && key.block >= start && key.block < start+count {
				c.removeLocked(ent)
				n++
			}
		}
	} else {
		for b := start; b < start+count; b++ {
			if ent := c.m[cacheKey{disk: disk, block: b}]; ent != nil {
				c.removeLocked(ent)
				n++
			}
		}
	}
	c.mu.Unlock()
	c.invals.Add(int64(n))
}

// InvalidateAll empties the cache (lease loss, event-ring reset).
func (c *BlockCache) InvalidateAll() {
	c.mu.Lock()
	n := len(c.m)
	for c.lru.prev != &c.lru {
		c.removeLocked(c.lru.prev)
	}
	c.mu.Unlock()
	c.invals.Add(int64(n))
}

// Len reports the number of cached blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Bytes reports the cached payload size.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mem == nil {
		return 0
	}
	return int64(len(c.m) * c.mem.BlockSize())
}

// sketch is the admission check's count-min sketch of recent lookups
// (TinyLFU: Einziger, Friedman and Manes, ACM TOS 2017): four rows of
// 4-bit counters, a key's estimate the smallest of its four. A key's four
// counters share one 64-bit word, so counting a lookup is one load and
// one store; only those at the key's minimum are raised (conservative
// update), and all are halved every ten capacities of lookups, so a block
// read no more loses its claim. It is sized on the first lookup, once the
// block size fixes the capacity in blocks, and never reallocated.
type sketch struct {
	words  []uint64 // row r's four counters are bits [16r, 16r+16) of a word
	shift  uint     // 64 - log2(len(words))
	count  int      // lookups since the last halving
	period int      // lookups between halvings
}

func (s *sketch) init(blocks int64) {
	blocks = max(blocks, 1)
	s.shift = 64
	for 1<<(64-s.shift) < 2*blocks {
		s.shift--
	}
	s.words = make([]uint64, 1<<(64-s.shift))
	s.period = 10 * int(blocks)
}

// locate returns the index of key's word and the 8 bits that choose its
// counter in each row of the word (2 per row), all from the top bits of
// one multiplicative (Fibonacci) hash of the key.
func (s *sketch) locate(key cacheKey) (int, uint) {
	h := (uint64(key.block) ^ uint64(key.disk)<<48) * 0x9e3779b97f4a7c15
	return int(h >> s.shift), uint(h>>(s.shift-8)) & 0xff
}

// counter reads the row-r counter that sel chooses in w.
func counter(w uint64, sel, r uint) uint64 { return w >> offset(sel, r) & 15 }

// offset is the bit offset in its word of the row-r counter sel chooses.
func offset(sel, r uint) uint { return (16*r + 4*(sel>>(2*r)&3)) & 63 }

// minCounter is a key's estimate: the smallest of its counters in w.
func minCounter(w uint64, sel uint) uint64 {
	return min(counter(w, sel, 0), counter(w, sel, 1), counter(w, sel, 2), counter(w, sel, 3))
}

// add counts one lookup of key.
func (s *sketch) add(key cacheKey) {
	i, sel := s.locate(key)
	w := s.words[i]
	if est := minCounter(w, sel); est < 15 {
		for r := uint(0); r < 4; r++ {
			if counter(w, sel, r) == est {
				w += 1 << offset(sel, r)
			}
		}
		s.words[i] = w
	}
	if s.count++; s.count >= s.period {
		for i, w := range s.words {
			s.words[i] = w >> 1 & 0x7777777777777777 // each counter halved
		}
		s.count = 0
	}
}

// estimate reports how often key was looked up recently (0 before the
// first lookup sized the sketch).
func (s *sketch) estimate(key cacheKey) uint64 {
	if s.words == nil {
		return 0
	}
	i, sel := s.locate(key)
	return minCounter(s.words[i], sel)
}
