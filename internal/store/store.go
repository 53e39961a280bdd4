// Package store provides the raw block storage that disks are built on.
// A BlockStore holds real bytes — every array engine in this repository
// moves actual data through these stores, so data integrity is checkable
// end to end (reads return exactly what was written, reconstruction
// really reconstructs, parity is really XOR-ed).
package store

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// BlockStore is fixed-block-size random-access storage.
type BlockStore interface {
	// BlockSize reports the size of one block in bytes.
	BlockSize() int
	// NumBlocks reports the store capacity in blocks.
	NumBlocks() int64
	// ReadBlock fills buf (which must be exactly BlockSize bytes) with
	// block b. Unwritten blocks read as zeros.
	ReadBlock(b int64, buf []byte) error
	// WriteBlock stores data (exactly BlockSize bytes) as block b.
	WriteBlock(b int64, data []byte) error
	// Blank zeroes the store's contents durably, in place: disk.Replace
	// blanks through it so that "install a fresh zeroed disk" destroys
	// the old contents on the backing medium too.
	Blank() error
}

// RangeError reports an out-of-range block access.
type RangeError struct {
	Block int64
	Max   int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("store: block %d out of range [0,%d)", e.Block, e.Max)
}

// SizeError reports a buffer whose length is not the block size.
type SizeError struct {
	Got  int
	Want int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("store: buffer is %d bytes, want %d", e.Got, e.Want)
}

// Mem is an in-memory BlockStore. Its blocks live in one anonymous
// mapping outside the Go heap: the kernel faults a page in, zeroed, on
// its first touch, so unwritten blocks read as zeros and cost no memory,
// and the garbage collector neither scans the store nor counts it toward
// its next goal. No slice of the mapping leaves Mem; reads and writes
// copy. Mem is safe for concurrent use.
type Mem struct {
	// mu[b%memShards] guards block b, contents included, and is held
	// across every copy into or out of the mapping: a reader must not
	// see a torn block, and the lock, a field of m, keeps m reachable
	// (and so its finalizer from unmapping) until the copy is done.
	// Sharding keeps that hold from serializing operations on
	// different blocks. Blank holds every shard while it swaps mem.
	mu        [memShards]sync.RWMutex
	blockSize int
	n         int64
	mem       []byte // n*blockSize bytes, mapped; nil when that is 0
}

const memShards = 64

// mappedBytes is how much memory every live Mem has mapped.
var mappedBytes atomic.Int64

// NewMem creates an in-memory store with n blocks of blockSize bytes.
// Like an allocation, it panics if the memory cannot be mapped.
func NewMem(blockSize int, n int64) *Mem {
	if blockSize <= 0 {
		panic("store: block size must be positive")
	}
	if n < 0 {
		panic("store: negative block count")
	}
	if n > 0 && int64(blockSize) > math.MaxInt/n {
		panic("store: store size overflows int")
	}
	size := int(n) * blockSize
	mem, err := mapMem(size)
	if err != nil {
		panic(fmt.Sprintf("store: map %d bytes: %v", size, err))
	}
	m := &Mem{blockSize: blockSize, n: n, mem: mem}
	runtime.SetFinalizer(m, func(m *Mem) { unmapMem(m.mem) })
	return m
}

// mapMem maps size bytes of zeroed, private, anonymous memory.
func mapMem(size int) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	mappedBytes.Add(int64(size))
	return mem, nil
}

func unmapMem(mem []byte) {
	if mem == nil {
		return
	}
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("store: unmap: %v", err)) // only a bad slice can fail
	}
	mappedBytes.Add(-int64(len(mem)))
}

// BlockSize implements BlockStore.
func (m *Mem) BlockSize() int { return m.blockSize }

// NumBlocks implements BlockStore.
func (m *Mem) NumBlocks() int64 { return m.n }

// block is block b's bytes in the mapping; the caller holds b's shard.
func (m *Mem) block(b int64) []byte {
	off := int(b) * m.blockSize
	return m.mem[off : off+m.blockSize]
}

// ReadBlock implements BlockStore.
func (m *Mem) ReadBlock(b int64, buf []byte) error {
	if len(buf) != m.blockSize {
		return &SizeError{Got: len(buf), Want: m.blockSize}
	}
	if b < 0 || b >= m.n {
		return &RangeError{Block: b, Max: m.n}
	}
	mu := &m.mu[b%memShards]
	mu.RLock()
	copy(buf, m.block(b))
	mu.RUnlock()
	return nil
}

// WriteBlock implements BlockStore.
func (m *Mem) WriteBlock(b int64, data []byte) error {
	if len(data) != m.blockSize {
		return &SizeError{Got: len(data), Want: m.blockSize}
	}
	if b < 0 || b >= m.n {
		return &RangeError{Block: b, Max: m.n}
	}
	mu := &m.mu[b%memShards]
	mu.Lock()
	copy(m.block(b), data)
	mu.Unlock()
	return nil
}

// Blank implements BlockStore: every block reverts to reading as zeros.
// A fresh mapping replaces the old one, whose pages go back to the
// system instead of being rewritten.
func (m *Mem) Blank() error {
	for i := range m.mu {
		m.mu[i].Lock()
		defer m.mu[i].Unlock()
	}
	mem, err := mapMem(len(m.mem))
	if err != nil {
		return fmt.Errorf("store: blank: %w", err)
	}
	unmapMem(m.mem)
	m.mem = mem
	return nil
}
