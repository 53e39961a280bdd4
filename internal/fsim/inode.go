package fsim

import (
	"context"
	"encoding/binary"
	"fmt"
)

// Inode modes.
const (
	modeFree uint16 = 0
	modeFile uint16 = 1
	modeDir  uint16 = 2
)

// inode is the 128-byte on-disk inode.
type inode struct {
	Mode     uint16
	Nlink    uint16
	Size     uint64
	Direct   [numDirect]uint64
	Indirect uint64
}

func (in *inode) encode(buf []byte) {
	binary.BigEndian.PutUint16(buf[0:], in.Mode)
	binary.BigEndian.PutUint16(buf[2:], in.Nlink)
	binary.BigEndian.PutUint64(buf[4:], in.Size)
	for i, d := range in.Direct {
		binary.BigEndian.PutUint64(buf[12+8*i:], d)
	}
	binary.BigEndian.PutUint64(buf[12+8*numDirect:], in.Indirect)
}

func (in *inode) decode(buf []byte) {
	in.Mode = binary.BigEndian.Uint16(buf[0:])
	in.Nlink = binary.BigEndian.Uint16(buf[2:])
	in.Size = binary.BigEndian.Uint64(buf[4:])
	for i := range in.Direct {
		in.Direct[i] = binary.BigEndian.Uint64(buf[12+8*i:])
	}
	in.Indirect = binary.BigEndian.Uint64(buf[12+8*numDirect:])
}

// inodeLoc reports the block and in-block offset of inode ino within
// its group's inode table.
func (fs *FS) inodeLoc(ino uint32) (blk int64, off int) {
	g := ino / fs.sb.InodesPerGroup
	within := ino % fs.sb.InodesPerGroup
	per := fs.bs / inodeSize
	return fs.sb.inodeTableStart(g) + int64(within)/int64(per), (int(within) % per) * inodeSize
}

// readInode loads inode ino.
func (fs *FS) readInode(ctx context.Context, t *tx, ino uint32) (*inode, error) {
	if ino >= fs.sb.maxInodes() {
		return nil, fmt.Errorf("fsim: inode %d out of range", ino)
	}
	blk, off := fs.inodeLoc(ino)
	buf, err := t.bread(ctx, blk)
	if err != nil {
		return nil, err
	}
	var in inode
	in.decode(buf[off : off+inodeSize])
	return &in, nil
}

// writeInode stores inode ino in its table block. The caller holds
// lockForInode(ino), which covers that whole block.
func (fs *FS) writeInode(ctx context.Context, t *tx, ino uint32, in *inode) error {
	blk, off := fs.inodeLoc(ino)
	buf, err := t.bread(ctx, blk)
	if err != nil {
		return err
	}
	in.encode(buf[off : off+inodeSize])
	t.bwrite(blk)
	return nil
}

// --- bitmaps (callers hold the owning group's lock) ---

// setInodeUsed flips inode ino's bit in its group's inode bitmap.
func (fs *FS) setInodeUsed(ctx context.Context, t *tx, ino uint32, used bool) error {
	g := ino / fs.sb.InodesPerGroup
	within := ino % fs.sb.InodesPerGroup
	bm := fs.sb.inodeBitmapBlk(g)
	buf, err := t.bread(ctx, bm)
	if err != nil {
		return err
	}
	if used {
		buf[within/8] |= 1 << (within % 8)
	} else {
		buf[within/8] &^= 1 << (within % 8)
	}
	t.bwrite(bm)
	return nil
}

// freeInode reports the first inode of group g that the inode bitmap
// marks free, among those whose slot lies in inode-table block tb, or
// in any block when tb is 0.
func (fs *FS) freeInode(ctx context.Context, t *tx, g uint32, tb int64) (uint32, error) {
	buf, err := t.bread(ctx, fs.sb.inodeBitmapBlk(g))
	if err != nil {
		return 0, err
	}
	for i := uint32(0); i < fs.sb.InodesPerGroup; i++ {
		ino := g*fs.sb.InodesPerGroup + i
		if buf[i/8]&(1<<(i%8)) != 0 {
			continue
		}
		if blk, _ := fs.inodeLoc(ino); tb == 0 || blk == tb {
			return ino, nil
		}
	}
	return 0, ErrNoInodes
}

// allocBlocks claims count free data blocks from group g.
func (fs *FS) allocBlocks(ctx context.Context, t *tx, g uint32, count int) ([]int64, error) {
	lo, hi := fs.sb.groupDataRange(g)
	bm := fs.sb.blockBitmapBlk(g)
	buf, err := t.bread(ctx, bm)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, count)
	for bit := int64(0); bit < hi-lo && len(out) < count; bit++ {
		if buf[bit/8]&(1<<(bit%8)) == 0 {
			buf[bit/8] |= 1 << (bit % 8)
			out = append(out, lo+bit)
		}
	}
	if len(out) < count {
		return nil, ErrNoSpace // the failed transaction commits nothing
	}
	t.bwrite(bm)
	return out, nil
}

// freeBlocksInGroup releases the subset of blks owned by group g.
func (fs *FS) freeBlocksInGroup(ctx context.Context, t *tx, g uint32, blks []int64) error {
	return fs.setBlocksInGroup(ctx, t, g, blks, false)
}

// setBlocksInGroup marks the subset of blks owned by group g used, or
// free.
func (fs *FS) setBlocksInGroup(ctx context.Context, t *tx, g uint32, blks []int64, used bool) error {
	lo, hi := fs.sb.groupDataRange(g)
	bm := fs.sb.blockBitmapBlk(g)
	buf, err := t.bread(ctx, bm)
	if err != nil {
		return err
	}
	for _, b := range blks {
		if b < lo || b >= hi {
			continue
		}
		bit := b - lo
		if used {
			buf[bit/8] |= 1 << (bit % 8)
		} else {
			buf[bit/8] &^= 1 << (bit % 8)
		}
	}
	t.bwrite(bm)
	return nil
}

// ptrsPerBlock is the fanout of the indirect block.
func (fs *FS) ptrsPerBlock() int { return fs.bs / 8 }

// maxFileBlocks is the largest file in blocks.
func (fs *FS) maxFileBlocks() int64 { return numDirect + int64(fs.ptrsPerBlock()) }

// blocksFor is the number of blocks a file of size bytes spans.
func (fs *FS) blocksFor(size int64) int64 { return (size + int64(fs.bs) - 1) / int64(fs.bs) }

// blockMap is an inode's file-block to physical-block map, resolved
// once per operation: the direct pointers plus one read of the indirect
// block. Physical block 0 (the superblock) stands for a hole.
type blockMap struct {
	in    *inode
	ind   []byte // the transaction's copy of the indirect block; nil if the file has none or the operation stays below numDirect
	dirty bool   // ind differs from what is on the array
}

// loadMap resolves file blocks [0, nblocks) of in.
func (fs *FS) loadMap(ctx context.Context, t *tx, in *inode, nblocks int64) (blockMap, error) {
	m := blockMap{in: in}
	if nblocks > numDirect && in.Indirect != 0 {
		var err error
		if m.ind, err = t.bread(ctx, int64(in.Indirect)); err != nil {
			return m, err
		}
	}
	return m, nil
}

// at reports the physical block of file block idx, 0 for a hole.
func (m *blockMap) at(idx int64) int64 {
	if idx < numDirect {
		return int64(m.in.Direct[idx])
	}
	off := (idx - numDirect) * 8
	if m.ind == nil || off >= int64(len(m.ind)) {
		return 0
	}
	return int64(binary.BigEndian.Uint64(m.ind[off:]))
}

// set points file block idx at phys. Past numDirect the indirect block
// must be loaded.
func (m *blockMap) set(idx, phys int64) {
	if idx < numDirect {
		m.in.Direct[idx] = uint64(phys)
		return
	}
	binary.BigEndian.PutUint64(m.ind[(idx-numDirect)*8:], uint64(phys))
	m.dirty = true
}

// run reports how many of the file blocks [idx, idx+limit), counted from
// idx, are physically consecutive (or, from a hole, are all holes), and
// the physical block of the first.
func (m *blockMap) run(idx int64, limit int) (phys int64, n int) {
	phys = m.at(idx)
	for n = 1; n < limit; n++ {
		next := phys + int64(n)
		if phys == 0 {
			next = 0
		}
		if m.at(idx+int64(n)) != next {
			break
		}
	}
	return phys, n
}

// mapBlocks ensures file blocks [first, want) are allocated, claiming
// new blocks from group g as needed and marking the indirect block
// dirty if it changed. Caller holds the inode lock and group g's lock.
func (fs *FS) mapBlocks(ctx context.Context, t *tx, m *blockMap, first, want int64, g uint32) error {
	if want > fs.maxFileBlocks() {
		return fmt.Errorf("fsim: file larger than %d blocks", fs.maxFileBlocks())
	}
	n := 0
	for idx := first; idx < want; idx++ {
		if m.at(idx) == 0 {
			n++
		}
	}
	needIndirect := want > numDirect && m.in.Indirect == 0
	if needIndirect {
		n++
	}
	if n == 0 {
		return nil
	}
	blks, err := fs.allocBlocks(ctx, t, g, n)
	if err != nil {
		return err
	}
	if needIndirect {
		m.in.Indirect = uint64(blks[0])
		blks = blks[1:]
		m.ind = t.zero(int64(m.in.Indirect))
	}
	for idx := first; idx < want; idx++ {
		if m.at(idx) == 0 {
			m.set(idx, blks[0])
			blks = blks[1:]
		}
	}
	m.flush(t)
	return nil
}

// flush marks a changed indirect block dirty in t.
func (m *blockMap) flush(t *tx) {
	if m.dirty {
		m.dirty = false
		t.bwrite(int64(m.in.Indirect))
	}
}

// fileBlocks lists the allocated physical blocks of an inode in order,
// the indirect block last.
func (fs *FS) fileBlocks(ctx context.Context, t *tx, in *inode) ([]int64, error) {
	nblocks := fs.blocksFor(int64(in.Size))
	m, err := fs.loadMap(ctx, t, in, nblocks)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, nblocks+1)
	for idx := int64(0); idx < nblocks; idx++ {
		if b := m.at(idx); b != 0 {
			out = append(out, b)
		}
	}
	if in.Indirect != 0 {
		out = append(out, int64(in.Indirect))
	}
	return out, nil
}

// piece cuts the next piece off the byte range [off, off+remain): the
// part of one block when the range starts or ends inside it, otherwise
// the longest run of whole blocks that are physically consecutive. It
// reports the first physical block (0: a hole), the offset within it and
// the piece's length in bytes; a piece shorter than a block is partial.
func (fs *FS) piece(m *blockMap, off int64, remain int) (phys int64, within, n int) {
	idx := off / int64(fs.bs)
	within = int(off % int64(fs.bs))
	if within != 0 || remain < fs.bs {
		return m.at(idx), within, min(fs.bs-within, remain)
	}
	phys, blocks := m.run(idx, remain/fs.bs)
	return phys, 0, blocks * fs.bs
}

// readData copies [off, off+len(p)) of the inode's data into p. Runs of
// whole blocks move in one array call each, straight into p and past
// the cache; partial blocks are read through the transaction.
func (fs *FS) readData(ctx context.Context, t *tx, in *inode, off int64, p []byte) (int, error) {
	size := int64(in.Size)
	if off >= size {
		return 0, nil
	}
	if off+int64(len(p)) > size {
		p = p[:size-off]
	}
	m, err := fs.loadMap(ctx, t, in, fs.blocksFor(off+int64(len(p))))
	if err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		phys, within, n := fs.piece(&m, off, len(p))
		switch {
		case phys == 0:
			clear(p[:n]) // hole
		case n < fs.bs:
			var buf []byte
			if buf, err = t.bread(ctx, phys); err == nil {
				copy(p[:n], buf[within:])
			}
		default:
			err = fs.arr.ReadBlocks(ctx, phys, p[:n])
		}
		if err != nil {
			return total, err
		}
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

// writeData stores p at [off, off+len(p)), growing the file with
// blocks from group g. Runs of whole blocks move in one array call each,
// straight from p and past the cache, before the transaction commits; a
// partial block is merged in the transaction, into zeros when this
// write allocated the block, so a previous owner's bytes are never read
// back. Caller must hold the inode and group locks; the inode is
// updated in memory and must be written back by the caller.
func (fs *FS) writeData(ctx context.Context, t *tx, in *inode, off int64, p []byte, g uint32) error {
	if len(p) == 0 {
		return nil
	}
	end := off + int64(len(p))
	first, want := off/int64(fs.bs), fs.blocksFor(end)
	m, err := fs.loadMap(ctx, t, in, want)
	if err != nil {
		return err
	}
	// Only the first and last block can be partial.
	firstFresh, lastFresh := m.at(first) == 0, m.at(want-1) == 0
	if err := fs.mapBlocks(ctx, t, &m, first, want, g); err != nil {
		return err
	}
	for len(p) > 0 {
		phys, within, n := fs.piece(&m, off, len(p))
		if n < fs.bs {
			idx := off / int64(fs.bs)
			var buf []byte
			if idx == first && firstFresh || idx == want-1 && lastFresh {
				buf = t.zero(phys)
			} else if buf, err = t.bread(ctx, phys); err != nil {
				return err
			}
			copy(buf[within:], p[:n])
			t.bwrite(phys)
		} else {
			if err := fs.arr.WriteBlocks(ctx, phys, p[:n]); err != nil {
				return err
			}
			t.drop(phys, n/fs.bs)
		}
		p = p[n:]
		off += int64(n)
	}
	if uint64(end) > in.Size {
		in.Size = uint64(end)
	}
	return nil
}
