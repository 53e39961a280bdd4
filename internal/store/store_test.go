package store

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemReadUnwrittenIsZero(t *testing.T) {
	m := NewMem(16, 4)
	buf := bytes.Repeat([]byte{0xff}, 16)
	if err := m.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMemWriteReadRoundTrip(t *testing.T) {
	m := NewMem(8, 10)
	data := []byte("abcdefgh")
	if err := m.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := m.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestMemWriteDoesNotAliasCallerBuffer(t *testing.T) {
	m := NewMem(4, 2)
	data := []byte{1, 2, 3, 4}
	if err := m.WriteBlock(0, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // mutate the caller's buffer after the write
	got := make([]byte, 4)
	if err := m.ReadBlock(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("store aliased caller buffer: got[0] = %d, want 1", got[0])
	}
}

func TestMemRangeErrors(t *testing.T) {
	m := NewMem(4, 2)
	buf := make([]byte, 4)
	var re *RangeError
	if err := m.ReadBlock(2, buf); !errors.As(err, &re) {
		t.Fatalf("read block 2: got %v, want RangeError", err)
	}
	if err := m.WriteBlock(-1, buf); !errors.As(err, &re) {
		t.Fatalf("write block -1: got %v, want RangeError", err)
	}
}

func TestMemSizeErrors(t *testing.T) {
	m := NewMem(4, 2)
	var se *SizeError
	if err := m.ReadBlock(0, make([]byte, 3)); !errors.As(err, &se) {
		t.Fatalf("short read buf: got %v, want SizeError", err)
	}
	if err := m.WriteBlock(0, make([]byte, 5)); !errors.As(err, &se) {
		t.Fatalf("long write buf: got %v, want SizeError", err)
	}
}

func TestMemSizeOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMem with n*blockSize past MaxInt did not panic")
		}
	}()
	NewMem(4096, math.MaxInt64/2)
}

// Property: for any sequence of writes, reading any block returns the
// last value written to it (or zeros).
func TestMemLastWriteWinsProperty(t *testing.T) {
	const blocks = 16
	f := func(ops []struct {
		Block uint8
		Val   uint8
	}) bool {
		m := NewMem(4, blocks)
		last := map[int64]uint8{}
		for _, op := range ops {
			b := int64(op.Block % blocks)
			data := bytes.Repeat([]byte{op.Val}, 4)
			if err := m.WriteBlock(b, data); err != nil {
				return false
			}
			last[b] = op.Val
		}
		for b := int64(0); b < blocks; b++ {
			got := make([]byte, 4)
			if err := m.ReadBlock(b, got); err != nil {
				return false
			}
			want := bytes.Repeat([]byte{last[b]}, 4)
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A first write to an untouched block, an overwrite and a read allocate
// nothing: a block is a range of the mapping, not a heap slice.
func TestAllocsMem(t *testing.T) {
	const runs = 100
	m := NewMem(4096, 2*runs)
	buf := make([]byte, 4096)
	var next int64
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"first write", func() { m.WriteBlock(next, buf); next++ }},
		{"overwrite", func() { m.WriteBlock(0, buf) }},
		{"read", func() { m.ReadBlock(1, buf) }},
	} {
		if n := testing.AllocsPerRun(runs, c.f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", c.name, n)
		}
	}
}

// gcUntil runs the collector, and so the finalizers of dropped stores,
// until the mapped-bytes count reads want, for at most 100 cycles.
func gcUntil(want int64) int64 {
	for i := 0; i < 100 && mappedBytes.Load() != want; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	return mappedBytes.Load()
}

func TestMemUnmappedWhenUnreachable(t *testing.T) {
	start := gcUntil(0) // let earlier tests' stores go first
	func() {
		m := NewMem(4096, 256)
		if err := m.WriteBlock(255, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if got := mappedBytes.Load(); got != start+256*4096 {
			t.Fatalf("mapped %d bytes with one store live, want %d", got, start+256*4096)
		}
	}()
	if got := gcUntil(start); got != start {
		t.Fatalf("mapped %d bytes after the store was dropped, want %d", got, start)
	}
}

// After Blank every block reads as zeros, and the old mapping has made
// way for the new one.
func TestMemBlankZeroesAndRemaps(t *testing.T) {
	gcUntil(0)
	m := NewMem(8, 16)
	for b := int64(0); b < 16; b++ {
		if err := m.WriteBlock(b, bytes.Repeat([]byte{byte(b + 1)}, 8)); err != nil {
			t.Fatal(err)
		}
	}
	before := mappedBytes.Load()
	if err := m.Blank(); err != nil {
		t.Fatal(err)
	}
	if got := mappedBytes.Load(); got != before {
		t.Fatalf("mapped %d bytes after Blank, want %d", got, before)
	}
	got := make([]byte, 8)
	for b := int64(0); b < 16; b++ {
		if err := m.ReadBlock(b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 8)) {
			t.Fatalf("block %d = %v after Blank, want zeros", b, got)
		}
	}
}

// Writers store whole-block patterns while readers read the same
// blocks: every read returns exactly one pattern.
func TestMemConcurrentNoTornBlock(t *testing.T) {
	const (
		bs      = 4096
		blocks  = 4
		workers = 4
		ops     = 2000
	)
	m := NewMem(bs, blocks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, bs)
			for i := 0; i < ops; i++ {
				v := byte(w*ops + i)
				for j := range data {
					data[j] = v
				}
				if err := m.WriteBlock(int64(i%blocks), data); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			buf := make([]byte, bs)
			for i := 0; i < ops; i++ {
				b := int64(i % blocks)
				if err := m.ReadBlock(b, buf); err != nil {
					t.Error(err)
					return
				}
				for j, v := range buf {
					if v != buf[0] {
						t.Errorf("block %d torn: byte 0 = %#x, byte %d = %#x", b, buf[0], j, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
