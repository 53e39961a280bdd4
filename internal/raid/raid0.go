package raid

import (
	"context"

	"repro/internal/layout"
)

// RAID0 is plain striping: full bandwidth, no redundancy. It is both a
// baseline in the paper's Table 2 and the model for RAID-x's data area.
type RAID0 struct {
	mem  *Members
	lay  layout.RAID0
	cols mapping
	bs   int
}

// NewRAID0 builds a RAID-0 array over the devices.
func NewRAID0(devs []Dev) (*RAID0, error) {
	bs, per, err := CheckDevs(devs, 1)
	if err != nil {
		return nil, err
	}
	return &RAID0{
		mem:  NewMembers("raid0", devs, bs, per),
		lay:  layout.NewRAID0(layout.Geometry{Disks: len(devs), DiskBlocks: per}),
		cols: mapping{width: len(devs), diskOf: func(c int) int { return c }},
		bs:   bs,
	}, nil
}

// Name implements Array.
func (a *RAID0) Name() string { return "raid0" }

// BlockSize implements Array.
func (a *RAID0) BlockSize() int { return a.bs }

// Blocks implements Array.
func (a *RAID0) Blocks() int64 { return a.lay.DataBlocks() }

// ReadBlocks implements Array.
func (a *RAID0) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	pl := a.cols.plan(b, p, a.bs)
	defer pl.Release()
	return a.mem.ReadRuns(ctx, a.mem.Load(), pl, nil, 0, nil)
}

// WriteBlocks implements Array.
func (a *RAID0) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	if _, err := CheckRange(a, b, p); err != nil {
		return err
	}
	pl := a.cols.plan(b, p, a.bs)
	defer pl.Release()
	return a.mem.WriteRuns(ctx, a.mem.Load(), pl, nil, 0, 0)
}

// Flush implements Array.
func (a *RAID0) Flush(ctx context.Context) error { return FlushAll(ctx, a.mem.Load().Devs) }
