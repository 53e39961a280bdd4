package cdd_test

import (
	"bytes"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/cdd"
	"repro/internal/obs"
)

// TestBlockCacheLRU walks the cache's one ring through every way an
// entry enters, moves and leaves it: eviction takes the least recently
// used block, a hit or a re-put protects one, both invalidation shapes
// and InvalidateAll leave a ring that still works, and the byte count
// follows along.
func TestBlockCacheLRU(t *testing.T) {
	const bs = 512
	reg := obs.NewRegistry()
	c := cdd.NewBlockCache(4*bs, reg)
	blk := func(v byte) []byte { return bytes.Repeat([]byte{v}, bs) }
	got := make([]byte, bs)
	holds := func(b int64, v byte) bool { return c.Get(0, b, got) && got[0] == v && got[bs-1] == v }
	expect := func(what string, want ...int64) {
		t.Helper()
		if c.Len() != len(want) || c.Bytes() != int64(len(want)*bs) {
			t.Fatalf("%s: %d blocks / %d bytes, want %d blocks", what, c.Len(), c.Bytes(), len(want))
		}
		// Probed oldest first, so the probes leave the recency order as
		// the caller listed it.
		for _, b := range want {
			if !holds(b, byte(b)) {
				t.Fatalf("%s: block %d missing or wrong", what, b)
			}
		}
	}

	for b := int64(0); b < 4; b++ {
		c.Put(0, b, blk(byte(b)))
	}
	expect("filled", 0, 1, 2, 3)
	c.Put(0, 4, blk(4)) // evicts 0, the oldest
	expect("after one eviction", 1, 2, 3, 4)
	if !holds(1, 1) { // a hit makes 1 the newest...
		t.Fatal("block 1 missing")
	}
	c.Put(0, 5, blk(5)) // ...so 2 goes
	expect("after a protected eviction", 3, 4, 1, 5)

	c.Put(0, 3, blk(0x33)) // re-put: new bytes, no growth, now newest
	if !holds(3, 0x33) || c.Len() != 4 {
		t.Fatalf("re-put: len %d", c.Len())
	}
	own := bufpool.Get(bs)
	copy(own, blk(0x44))
	c.PutOwned(0, 4, own) // handoff over an existing key
	if !holds(4, 0x44) || c.Len() != 4 || c.Bytes() != 4*bs {
		t.Fatalf("owned re-put: len %d, bytes %d", c.Len(), c.Bytes())
	}
	own = bufpool.Get(bs)
	copy(own, blk(6))
	c.PutOwned(0, 6, own) // handoff of a new key: 1 is the oldest now
	if holds(1, 1) || !holds(6, 6) || c.Len() != 4 {
		t.Fatalf("owned insert did not evict the oldest: len %d", c.Len())
	}
	if got := reg.Counter("sess.cache_evictions").Value(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}

	c.InvalidateBlocks(0, 5, 2) // narrow: blocks 5 and 6
	if c.Len() != 2 || holds(5, 5) || holds(6, 6) {
		t.Fatalf("narrow invalidation left %d blocks", c.Len())
	}
	c.Put(1, 3, blk(9))            // another disk's block 3
	c.InvalidateBlocks(0, 0, 1000) // wide: scans entries, one disk only
	if c.Len() != 1 || !c.Get(1, 3, got) {
		t.Fatalf("wide invalidation left %d blocks, want disk 1's alone", c.Len())
	}
	c.InvalidateAll()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("InvalidateAll left %d blocks / %d bytes", c.Len(), c.Bytes())
	}
	for b := int64(0); b < 6; b++ {
		c.Put(0, b, blk(byte(b)))
	}
	expect("refilled after InvalidateAll", 2, 3, 4, 5)
}
