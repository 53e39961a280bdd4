package raid

import (
	"context"

	"repro/internal/bufpool"
)

// VecDev is optionally implemented by devices that support
// scatter/gather block I/O natively: the segments address consecutive
// blocks on the device starting at b, and each segment's length must be
// a positive multiple of the block size. Remote disks implement it to
// put a strided column access on the wire as one vectored frame;
// devices without it are served by ReadBlocksVec/WriteBlocksVec through
// a pooled coalescing buffer.
type VecDev interface {
	ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error
	WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error
}

// ReadBlocksVec reads consecutive blocks starting at b, scattering them
// into segs: natively when the device supports it, otherwise through
// one pooled flat read (the only copy on the path).
func ReadBlocksVec(ctx context.Context, d Dev, b int64, segs [][]byte) error {
	if len(segs) == 1 {
		return d.ReadBlocks(ctx, b, segs[0])
	}
	if v, ok := d.(VecDev); ok {
		return v.ReadBlocksVec(ctx, b, segs)
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf := bufpool.Get(total)
	err := d.ReadBlocks(ctx, b, buf)
	if err == nil {
		n := 0
		for _, s := range segs {
			n += copy(s, buf[n:])
		}
	}
	bufpool.Put(buf)
	return err
}

// WriteBlocksVec writes the gather list segs as consecutive blocks
// starting at b: natively when the device supports it, otherwise
// through one pooled flat write (the only copy on the path).
func WriteBlocksVec(ctx context.Context, d Dev, b int64, segs [][]byte) error {
	if len(segs) == 1 {
		return d.WriteBlocks(ctx, b, segs[0])
	}
	if v, ok := d.(VecDev); ok {
		return v.WriteBlocksVec(ctx, b, segs)
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf := bufpool.Get(total)
	n := 0
	for _, s := range segs {
		n += copy(buf[n:], s)
	}
	err := d.WriteBlocks(ctx, b, buf)
	bufpool.Put(buf)
	return err
}

// Run is a background write of consecutive blocks starting at Phys,
// flat in Data.
type Run struct {
	Phys int64
	Data []byte
}

// GroupDev is optionally implemented by devices that can send a write
// and background writes of the same device as one transfer: the write
// of segs at b, as VecDev's, and each run of bg as WriteBlocksBackground
// would write it. The call returns once the write and its runs have
// landed or failed; after an error any of them may or may not have
// landed. Remote disks implement it to put a member's foreground run and
// the deferred images it hosts on the wire as one request; over any
// other device the members issue the runs as branches of their own.
type GroupDev interface {
	WriteBlocksWith(ctx context.Context, b int64, segs [][]byte, bg []Run) error
}
