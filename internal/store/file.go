package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// File is a file-backed BlockStore: a checksummed superblock followed by
// one flat data region, block b at offset SuperSize + b*BlockSize. The
// data region is truncated to full size at format, so holes read as
// zeros (sparse on file systems that support it). File gives raidxnode
// persistent disks — the durable counterpart of Mem.
//
// Durability discipline:
//
//   - Opening marks the image in use (clean flag cleared, synced) before
//     any data write, so a later reopen can tell a crash from a clean
//     shutdown.
//   - WriteBlock is volatile until Sync returns — the same contract as a
//     disk with a write-back cache. Callers that need durability call
//     Sync at their barrier points.
//   - CloseClean syncs the data, then sets the clean flag, then syncs
//     again: the flag can never claim durability ahead of the data.
type File struct {
	// mu serializes superblock transitions (open/in-use, clean-close,
	// blank) against each other; block I/O is positional and needs no
	// lock of its own.
	mu        sync.Mutex
	fs        FS
	f         VFile
	blockSize int
	blocks    int64
	sb        Superblock
	wasClean  bool
	closed    bool
}

// FileOptions tune OpenFileFS beyond the geometry.
type FileOptions struct {
	// ArrayUUID, when nonzero, is stamped into a freshly formatted image
	// and verified against an existing one, so a disk image from another
	// array cannot be silently mounted into this one.
	ArrayUUID [16]byte
	// Epoch, when nonzero, is the cluster's array-layout epoch
	// generation. A fresh image is stamped with it. An existing image
	// whose recorded epoch LAGS it opens fine — a node reopening after
	// missing a rebalance (or mid-migration) is expected to be behind,
	// and the resume/resync path catches it up. An image whose recorded
	// epoch is AHEAD fails with ErrEpochAhead: the caller's cluster
	// description is stale and placements computed from it would be
	// wrong. Zero skips the check (callers that do not track epochs).
	Epoch uint64
}

// OpenFile creates (or reopens) a file-backed store at path on the real
// file system. See OpenFileFS.
func OpenFile(path string, blockSize int, blocks int64) (*File, error) {
	return OpenFileFS(OS, path, blockSize, blocks, FileOptions{})
}

// OpenFileFS creates (or reopens) a file-backed store at path through
// fs with the given geometry. A zero-length file is formatted: the
// superblock is written and the data region truncated to full size,
// with the create made durable via file sync + directory sync.
// Reopening an existing image validates the superblock — a foreign
// file fails with ErrForeignImage, a torn header with
// ErrCorruptSuperblock, a geometry lie with ErrGeometryMismatch, a
// short file with ErrTruncatedImage — and records whether the previous
// close was clean (WasClean) before marking the image in use again.
func OpenFileFS(fs FS, path string, blockSize int, blocks int64, opts FileOptions) (*File, error) {
	if blockSize <= 0 || blocks < 0 {
		return nil, fmt.Errorf("store: bad geometry %dx%d", blockSize, blocks)
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &File{fs: fs, f: f, blockSize: blockSize, blocks: blocks}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size == 0 {
		if err := s.format(path, opts); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	if err := s.validate(path, size, opts); err != nil {
		f.Close()
		return nil, err
	}
	// Mark in use: a crash from here on is detectable at the next open.
	// Legacy headers upgrade to the current version here (the rewrite
	// happens regardless), which also makes the epoch field recordable.
	s.sb.Version = SuperVersion
	s.sb.Clean = false
	if err := writeSuper(s.f, &s.sb); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// format initializes a fresh image: superblock (in-use), full-size data
// region, then the sync + dir-sync barrier that makes the create durable.
func (s *File) format(path string, opts FileOptions) error {
	s.sb = Superblock{
		Version:    SuperVersion,
		BlockSize:  s.blockSize,
		Blocks:     s.blocks,
		ArrayUUID:  opts.ArrayUUID,
		DeviceUUID: newUUID(),
		ArrayEpoch: opts.Epoch,
		Clean:      false,
	}
	if _, err := s.f.WriteAt(s.sb.encode(), 0); err != nil {
		return err
	}
	if err := s.f.Truncate(SuperSize + int64(s.blockSize)*s.blocks); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := s.fs.SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	s.wasClean = true // fresh image: nothing to recover
	return nil
}

// validate decodes and checks an existing image's superblock.
func (s *File) validate(path string, size int64, opts FileOptions) error {
	if size < superHeaderLen {
		return fmt.Errorf("%w: %s is %d bytes", ErrTruncatedImage, path, size)
	}
	hdr := make([]byte, superHeaderLen)
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return err
	}
	sb, err := decodeSuperblock(hdr)
	if err != nil {
		if errors.Is(err, ErrForeignImage) {
			// A raw pre-superblock image is exactly blockSize*blocks long
			// and starts with data; give the operator a hint.
			return fmt.Errorf("%w: %s (legacy headerless images must be recreated)", ErrForeignImage, path)
		}
		return fmt.Errorf("%s: %w", path, err)
	}
	if sb.BlockSize != s.blockSize || sb.Blocks != s.blocks {
		return fmt.Errorf("%w: %s is %dx%d, want %dx%d",
			ErrGeometryMismatch, path, sb.BlockSize, sb.Blocks, s.blockSize, s.blocks)
	}
	if want := SuperSize + int64(sb.BlockSize)*sb.Blocks; size < want {
		return fmt.Errorf("%w: %s is %d bytes, superblock says %d", ErrTruncatedImage, path, size, want)
	}
	var zero [16]byte
	if opts.ArrayUUID != zero && sb.ArrayUUID != zero && sb.ArrayUUID != opts.ArrayUUID {
		return fmt.Errorf("store: %s belongs to array %s, not %s",
			path, UUIDString(sb.ArrayUUID), UUIDString(opts.ArrayUUID))
	}
	if opts.Epoch != 0 && sb.ArrayEpoch > opts.Epoch {
		return fmt.Errorf("%w: %s records epoch %d, cluster at %d",
			ErrEpochAhead, path, sb.ArrayEpoch, opts.Epoch)
	}
	s.sb = sb
	s.wasClean = sb.Clean
	return nil
}

// BlockSize implements BlockStore.
func (s *File) BlockSize() int { return s.blockSize }

// NumBlocks implements BlockStore.
func (s *File) NumBlocks() int64 { return s.blocks }

// WasClean reports whether the image had been closed cleanly before
// this open. False means the previous holder crashed (or was killed)
// while the image was in use: unsynced writes may be lost or torn, and
// the repair layer should treat the recorded dirty regions as stale.
func (s *File) WasClean() bool { return s.wasClean }

// DeviceUUID reports the image's device identity (assigned at format,
// regenerated by Blank).
func (s *File) DeviceUUID() [16]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.DeviceUUID
}

// ArrayUUID reports the array identity stamped on the image (zero when
// the image was formatted without one).
func (s *File) ArrayUUID() [16]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.ArrayUUID
}

// Epoch reports the array-layout epoch generation recorded on the
// image. Note this is the epoch at the last superblock write, not the
// cluster's — a reopened image may lag.
func (s *File) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.ArrayEpoch
}

// SetEpoch durably raises the image's recorded array epoch — called
// when the cluster's rebalance coordinator broadcasts a new generation.
// Lower generations are ignored; the record never rolls back.
func (s *File) SetEpoch(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || gen <= s.sb.ArrayEpoch {
		return nil
	}
	s.sb.ArrayEpoch = gen
	return writeSuper(s.f, &s.sb)
}

func (s *File) check(b int64, buf []byte) error {
	if len(buf) != s.blockSize {
		return &SizeError{Got: len(buf), Want: s.blockSize}
	}
	if b < 0 || b >= s.blocks {
		return &RangeError{Block: b, Max: s.blocks}
	}
	return nil
}

// ReadBlock implements BlockStore.
func (s *File) ReadBlock(b int64, buf []byte) error {
	if err := s.check(b, buf); err != nil {
		return err
	}
	_, err := s.f.ReadAt(buf, SuperSize+b*int64(s.blockSize))
	return err
}

// WriteBlock implements BlockStore. The write is volatile until Sync.
func (s *File) WriteBlock(b int64, data []byte) error {
	if err := s.check(b, data); err != nil {
		return err
	}
	_, err := s.f.WriteAt(data, SuperSize+b*int64(s.blockSize))
	return err
}

// Sync flushes the backing file to stable storage — the durability
// barrier for everything written before it.
func (s *File) Sync() error { return s.f.Sync() }

// Blank implements BlockStore: the data region is zeroed (truncate down
// and back up, so the file goes sparse again), the device takes a new
// identity, and the result is synced. Used when the image stands in for
// a hot-swapped blank replacement disk: the old contents must not
// resurrect on restart.
func (s *File) Blank() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Truncate(SuperSize); err != nil {
		return err
	}
	if err := s.f.Truncate(SuperSize + int64(s.blockSize)*s.blocks); err != nil {
		return err
	}
	s.sb.DeviceUUID = newUUID()
	s.sb.Clean = false
	return writeSuper(s.f, &s.sb)
}

// Close releases the backing file WITHOUT marking it clean — from the
// superblock's point of view this is indistinguishable from a crash.
// Graceful shutdown paths should use CloseClean.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// CloseClean syncs the data region, marks the superblock clean, syncs
// again, and closes. A reopen after CloseClean reports WasClean.
func (s *File) CloseClean() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		s.closed = true
		s.f.Close()
		return err
	}
	s.sb.Clean = true
	if err := writeSuper(s.f, &s.sb); err != nil {
		s.closed = true
		s.f.Close()
		return err
	}
	s.closed = true
	return s.f.Close()
}
