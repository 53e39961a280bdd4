package raid

import (
	"context"
	"fmt"

	"repro/internal/layout"
)

// RAID0 is plain striping: full bandwidth, no redundancy. It is both a
// baseline in the paper's Table 2 and the model for RAID-x's data area.
type RAID0 struct {
	view *MemberView
	lay  layout.RAID0
	bs   int
}

// NewRAID0 builds a RAID-0 array over the devices.
func NewRAID0(devs []Dev) (*RAID0, error) {
	bs, per, err := CheckDevs(devs, 1)
	if err != nil {
		return nil, err
	}
	return &RAID0{
		view: NewMembers("raid0", devs, bs, per).Load(),
		lay:  layout.NewRAID0(layout.Geometry{Disks: len(devs), DiskBlocks: per}),
		bs:   bs,
	}, nil
}

// Name implements Array.
func (a *RAID0) Name() string { return "raid0" }

// BlockSize implements Array.
func (a *RAID0) BlockSize() int { return a.bs }

// Blocks implements Array.
func (a *RAID0) Blocks() int64 { return a.lay.DataBlocks() }

func (a *RAID0) mapping() mapping {
	return mapping{width: len(a.view.Devs), base: 0, diskOf: func(c int) int { return c }}
}

// ReadBlocks implements Array.
func (a *RAID0) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	return readStriped(ctx, a.view, a.mapping(), b, p, a.bs, func(context.Context, run) error {
		return fmt.Errorf("raid0: %w", ErrDataLoss)
	})
}

// WriteBlocks implements Array.
func (a *RAID0) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	return writeStriped(ctx, a.view.Devs, a.mapping(), b, p, a.bs, nil)
}

// Flush implements Array.
func (a *RAID0) Flush(ctx context.Context) error { return FlushAll(ctx, a.view.Devs) }
