package cdd_test

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/cdd"
	"repro/internal/obs"
	"repro/internal/race"
)

// TestBlockCacheAdmission walks the cache's admission rule and its one
// LRU ring: what a full cache lets in and what it evicts for it, that a
// cached key is always overwritten, that a rejection costs nothing, that
// a block's claim ages out, and that every invalidation shape leaves a
// ring that still works.
func TestBlockCacheAdmission(t *testing.T) {
	const bs, capBlocks = 512, 16
	blk := func(v byte) []byte { return bytes.Repeat([]byte{v}, bs) }
	got := make([]byte, bs)
	// read is the session's read path: a lookup, and a fill on a miss.
	read := func(c *cdd.BlockCache, b int64) {
		if !c.Get(0, b, got) {
			c.Put(0, b, blk(byte(b)))
		}
	}
	holds := func(c *cdd.BlockCache, b int64, v byte) bool {
		return c.Get(0, b, got) && got[0] == v && got[bs-1] == v
	}
	readEach := func(c *cdd.BlockCache, from, to int64) {
		for b := from; b < to; b++ {
			read(c, b)
		}
	}
	size := func(t *testing.T, c *cdd.BlockCache, blocks int) {
		t.Helper()
		if c.Len() != blocks || c.Bytes() != int64(blocks*bs) {
			t.Fatalf("%d blocks / %d bytes, want %d blocks", c.Len(), c.Bytes(), blocks)
		}
	}
	counts := func(t *testing.T, reg *obs.Registry, evicts, rejects int64) {
		t.Helper()
		e, r := reg.Counter("sess.cache_evictions").Value(), reg.Counter("sess.cache_admit_rejects").Value()
		if e != evicts || r != rejects {
			t.Fatalf("%d evictions / %d admission rejects, want %d / %d", e, r, evicts, rejects)
		}
	}

	rows := []struct {
		name string
		run  func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry)
	}{
		{"below capacity every block is admitted", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			for b := int64(0); b < capBlocks; b++ {
				c.Put(0, b, blk(byte(b))) // never looked up: estimate 0
			}
			size(t, c, capBlocks)
			c.Put(0, capBlocks, blk(1)) // would evict, and is no hotter
			size(t, c, capBlocks)
			counts(t, reg, 0, 1)
			for b := int64(0); b < capBlocks; b++ {
				if !holds(c, b, byte(b)) {
					t.Fatalf("block %d missing or wrong", b)
				}
			}
		}},
		{"eviction among admitted blocks is least recently used", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			readEach(c, 0, capBlocks)
			if !holds(c, 0, 0) { // a hit makes 0 the newest...
				t.Fatal("block 0 missing")
			}
			for _, b := range []int64{100, 101} {
				read(c, b) // rejected: one lookup, like the LRU block
				read(c, b) // admitted: two — evicting 1, then 2
			}
			counts(t, reg, 2, 2)
			for _, b := range []int64{1, 2} {
				if c.Get(0, b, got) {
					t.Fatalf("block %d survived; the LRU blocks were 1 and 2", b)
				}
			}
			for _, b := range []int64{0, 3, 100, 101} {
				if !holds(c, b, byte(b)) {
					t.Fatalf("block %d missing or wrong", b)
				}
			}
		}},
		{"a one-pass scan does not displace blocks read twice", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			readEach(c, 0, capBlocks)
			readEach(c, 0, capBlocks)
			readEach(c, 1000, 1000+2*capBlocks)
			counts(t, reg, 0, 2*capBlocks)
			size(t, c, capBlocks)
			for b := int64(0); b < capBlocks; b++ {
				if !holds(c, b, byte(b)) {
					t.Fatalf("scan displaced hot block %d", b)
				}
			}
		}},
		{"a put over a cached key always replaces it", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			readEach(c, 0, capBlocks) // every block looked up once
			read(c, 99)               // so is 99, which is turned away...
			counts(t, reg, 0, 1)
			c.Put(0, 5, blk(0x55)) // ...but a cached key with the same count is not,
			own := bufpool.Get(bs)
			copy(own, blk(0x66))
			c.Put(0, 6, own) // the flusher's put: a copy, then its buffer goes back
			bufpool.Put(own)
			c.Put(0, 0, blk(0xaa)) // nor is the LRU block itself
			counts(t, reg, 0, 1)
			size(t, c, capBlocks)
			for b, v := range map[int64]byte{0: 0xaa, 5: 0x55, 6: 0x66, 7: 7} {
				if !holds(c, b, v) {
					t.Fatalf("block %d does not hold %#x", b, v)
				}
			}
			if c.Get(0, 99, got) {
				t.Fatal("rejected block 99 is cached")
			}
		}},
		{"a rejected Put changes nothing and its buffer goes back", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			readEach(c, 0, capBlocks)
			own := bufpool.Get(bs)
			before := bufpool.Snapshot()
			c.Put(0, 200, own)
			bufpool.Put(own)
			if puts := bufpool.Snapshot().Puts - before.Puts; puts < 1 {
				t.Fatal("the rejected buffer was not returned to bufpool")
			}
			size(t, c, capBlocks)
			counts(t, reg, 0, 1)
			if c.Get(0, 200, got) {
				t.Fatal("rejected block 200 is cached")
			}
		}},
		{"a block of another size misses and is rejected", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			readEach(c, 0, 4) // the first insert fixed the slot size at bs
			half := make([]byte, bs/2)
			c.Put(0, 50, half)
			counts(t, reg, 0, 1)
			if c.Get(0, 50, half) || c.Get(0, 1, make([]byte, 2*bs)) {
				t.Fatal("a lookup of another size hit")
			}
			size(t, c, 4)
			if !holds(c, 1, 1) {
				t.Fatal("block 1 missing or wrong")
			}
		}},
		{"a hot block no longer read ages out", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			for i := 0; i < 20; i++ {
				read(c, 0) // saturates block 0's counters
			}
			readEach(c, 1, capBlocks)
			readEach(c, 100, 100+capBlocks)
			if !holds(c, 0, 0) { // the scan could not displace it
				t.Fatal("hot block 0 displaced by one pass of newcomers")
			}
			for i := 0; i < 20*capBlocks; i++ {
				read(c, 100+int64(i%capBlocks))
			}
			if c.Get(0, 0, got) {
				t.Fatalf("block 0 still cached %d lookups after its last read", 20*capBlocks)
			}
		}},
		{"invalidation: narrow, wide and all", func(t *testing.T, c *cdd.BlockCache, reg *obs.Registry) {
			readEach(c, 0, 4)
			c.InvalidateBlocks(0, 1, 2) // narrow: blocks 1 and 2
			if c.Len() != 2 || holds(c, 1, 1) || holds(c, 2, 2) || !holds(c, 3, 3) {
				t.Fatalf("narrow invalidation left %d blocks", c.Len())
			}
			c.Put(1, 3, blk(9))            // another disk's block 3
			c.InvalidateBlocks(0, 0, 1000) // wide: scans entries, one disk only
			if c.Len() != 1 || !c.Get(1, 3, got) {
				t.Fatalf("wide invalidation left %d blocks, want disk 1's alone", c.Len())
			}
			c.InvalidateAll()
			size(t, c, 0)
			readEach(c, 0, capBlocks+4) // the ring still fills and turns away
			size(t, c, capBlocks)
			if got := reg.Counter("sess.cache_invalidations").Value(); got != 5 {
				t.Fatalf("invalidations = %d, want 5", got)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			row.run(t, cdd.NewBlockCache(capBlocks*bs, reg), reg)
		})
	}
}

// TestCallsCacheZipf pins the cache's hit ratio on the session_cache
// workload's own mix, replayed straight into a BlockCache — no network,
// no clock: one client's 70 % reads at Zipf 0.9 over a 4,096-block
// region, ranks scattered by the benchmark generator's seeded
// permutation, a 1,024-block cache, and writes absorbed into a 64-block
// write-back batch whose flush copies every block into the cache in
// ascending order, as writeback.go's commit does. A dirty block's read
// is served from the batch and never reaches the cache. Plain LRU reads
// 0.631 / 0.212 here.
func TestCallsCacheZipf(t *testing.T) {
	const (
		bs, capBlocks, region, batch = 512, 1024, 4096, 64
		warm, ops                    = 50_000, 300_000
		seed                         = 1
	)
	// The benchmark's splitmix64 streams and Zipf draw (benchmark/gen.go).
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	stream := func(id uint64) func() uint64 {
		s := mix(seed*0x9e3779b97f4a7c15 + id + 1)
		return func() uint64 { s += 0x9e3779b97f4a7c15; return mix(s) }
	}
	cdf, perm := make([]float64, region), make([]int64, region)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), 0.9)
		cdf[k], perm[k] = sum, int64(k)
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	shuffle := stream(0x7a697066)
	for i := region - 1; i > 0; i-- {
		j := shuffle() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := stream(0)
	float := func() float64 { return float64(next()>>11) / (1 << 53) }

	reg := obs.NewRegistry()
	c := cdd.NewBlockCache(capBlocks*bs, reg)
	hits, misses := reg.Counter("sess.cache_hits"), reg.Counter("sess.cache_misses")
	buf := make([]byte, bs)
	dirty := map[int64]bool{}
	var flush []int64
	var hits0, misses0 int64
	for op := 0; op < warm+ops; op++ {
		if op == warm {
			hits0, misses0 = hits.Value(), misses.Value()
		}
		isRead := float() < 0.7
		b := perm[min(sort.SearchFloat64s(cdf, float()), region-1)]
		switch {
		case isRead && dirty[b]:
		case isRead:
			if !c.Get(0, b, buf) {
				c.Put(0, b, buf)
			}
		default:
			dirty[b] = true
			if len(dirty) < batch {
				continue
			}
			flush = flush[:0]
			for b := range dirty {
				flush = append(flush, b)
			}
			slices.Sort(flush)
			for _, b := range flush {
				own := bufpool.Get(bs)
				c.Put(0, b, own)
				bufpool.Put(own)
			}
			clear(dirty)
		}
	}
	h, m := float64(hits.Value()-hits0), float64(misses.Value()-misses0)
	ratio, perOp := h/(h+m), m/ops
	t.Logf("hit ratio %.4f, misses per op %.4f", ratio, perOp)
	if ratio < 0.69 || perOp > 0.175 {
		t.Fatalf("hit ratio %.4f, misses per op %.4f; want >= 0.69 and <= 0.175", ratio, perOp)
	}
}

// TestAllocsCacheBytesOffHeap pins where a full cache's bytes live: 1,024
// distinct 4 KiB blocks in a default 4 MiB cache grow the live heap by
// under 512 KiB (entries, map and sketch), not by the 4 MiB they hold.
func TestAllocsCacheBytesOffHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("heap accounting differs under -race")
	}
	const bs, blocks = 4 << 10, 1024
	var before, after runtime.MemStats
	runtime.GC() // twice: the first leaves pooled buffers in the victim cache
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := cdd.NewBlockCache(0, nil)
	data, got := make([]byte, bs), make([]byte, bs)
	for b := int64(0); b < blocks; b++ {
		data[0] = byte(b)
		c.Put(0, b, data)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	last := int64(blocks - 1)
	if c.Len() != blocks || !c.Get(0, last, got) || got[0] != byte(last) {
		t.Fatalf("%d blocks cached, want %d with the last one readable", c.Len(), blocks)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d KiB for %d KiB cached", grew>>10, blocks*bs>>10)
	if grew >= 512<<10 {
		t.Fatalf("live heap grew %d bytes for a full cache, want < 512 KiB", grew)
	}
}
