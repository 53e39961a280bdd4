// Package store provides the raw block storage that disks are built on.
// A BlockStore holds real bytes — every array engine in this repository
// moves actual data through these stores, so data integrity is checkable
// end to end (reads return exactly what was written, reconstruction
// really reconstructs, parity is really XOR-ed).
package store

import (
	"fmt"
	"sync"
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
}

// Blanker is implemented by stores that can erase themselves in place.
// disk.Replace blanks through it so that "install a fresh zeroed disk"
// actually destroys the old contents on the backing medium — replacing
// a file-backed store with a fresh in-memory one would only forget the
// data until the next restart.
type Blanker interface {
	// Blank zeroes the store's contents durably.
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

// Mem is an in-memory BlockStore. Blocks are allocated lazily on first
// write; unwritten blocks read as zeros. Mem is safe for concurrent use.
type Mem struct {
	// mu[b%memShards] guards block b, contents included: WriteBlock
	// overwrites a block's slice in place, so a reader holds the lock
	// across its copy or it could return a torn block. Sharding keeps
	// that longer hold from serializing operations on different blocks.
	mu        [memShards]sync.RWMutex
	blockSize int
	blocks    []([]byte)
}

const memShards = 64

// NewMem creates an in-memory store with n blocks of blockSize bytes.
func NewMem(blockSize int, n int64) *Mem {
	if blockSize <= 0 {
		panic("store: block size must be positive")
	}
	if n < 0 {
		panic("store: negative block count")
	}
	return &Mem{blockSize: blockSize, blocks: make([][]byte, n)}
}

// BlockSize implements BlockStore.
func (m *Mem) BlockSize() int { return m.blockSize }

// NumBlocks implements BlockStore.
func (m *Mem) NumBlocks() int64 { return int64(len(m.blocks)) }

// ReadBlock implements BlockStore.
func (m *Mem) ReadBlock(b int64, buf []byte) error {
	if len(buf) != m.blockSize {
		return &SizeError{Got: len(buf), Want: m.blockSize}
	}
	if b < 0 || b >= int64(len(m.blocks)) {
		return &RangeError{Block: b, Max: int64(len(m.blocks))}
	}
	mu := &m.mu[b%memShards]
	mu.RLock()
	if src := m.blocks[b]; src != nil {
		copy(buf, src)
	} else {
		clear(buf)
	}
	mu.RUnlock()
	return nil
}

// WriteBlock implements BlockStore.
func (m *Mem) WriteBlock(b int64, data []byte) error {
	if len(data) != m.blockSize {
		return &SizeError{Got: len(data), Want: m.blockSize}
	}
	if b < 0 || b >= int64(len(m.blocks)) {
		return &RangeError{Block: b, Max: int64(len(m.blocks))}
	}
	mu := &m.mu[b%memShards]
	mu.Lock()
	dst := m.blocks[b]
	if dst == nil {
		dst = make([]byte, m.blockSize)
		m.blocks[b] = dst
	}
	copy(dst, data)
	mu.Unlock()
	return nil
}

// Blank implements Blanker: every block reverts to reading as zeros.
func (m *Mem) Blank() error {
	for i := range m.mu {
		m.mu[i].Lock()
		defer m.mu[i].Unlock()
	}
	clear(m.blocks)
	return nil
}

// AllocatedBlocks reports how many blocks have been written at least
// once (useful in tests and capacity accounting).
func (m *Mem) AllocatedBlocks() int64 {
	var n int64
	for i := range m.blocks {
		mu := &m.mu[i%memShards]
		mu.RLock()
		if m.blocks[i] != nil {
			n++
		}
		mu.RUnlock()
	}
	return n
}
