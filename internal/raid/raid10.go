package raid

import (
	"fmt"

	"repro/internal/layout"
)

// NewRAID10 builds a striped-mirror (RAID-10) array: data striped over
// disk pairs, with the primary copy on the even disk of each pair and
// the image on the odd disk at the same offset. Writes update both
// copies in the foreground; reads alternate between copies.
func NewRAID10(devs []Dev) (*RAID10, error) {
	bs, per, err := CheckDevs(devs, 2)
	if err != nil {
		return nil, err
	}
	if len(devs)%2 != 0 {
		return nil, fmt.Errorf("raid10: need an even number of devices, got %d", len(devs))
	}
	lay := layout.NewRAID10(layout.Geometry{Disks: len(devs), DiskBlocks: per})
	pairs := lay.Pairs()
	a := &RAID10{mirroredArray{
		mem:     NewMembers("raid10", devs, bs, per),
		bs:      bs,
		blocks:  lay.DataBlocks(),
		primary: mapping{width: pairs, base: 0, diskOf: func(c int) int { return 2 * c }},
		mirror:  mapping{width: pairs, base: 0, diskOf: func(c int) int { return 2*c + 1 }},
	}}
	return a, nil
}

// RAID10 is the striped-mirror baseline.
type RAID10 struct{ mirroredArray }

// NewChained builds a chained-declustering array (Hsiao–DeWitt; the
// paper's Figure 1b): disk i's data half is mirrored into the mirror
// half of disk (i+1) mod n. Like RAID-10, both copies are written in
// the foreground — the scattered, synchronous mirror updates are what
// RAID-x's clustered background mirror groups improve upon.
func NewChained(devs []Dev) (*Chained, error) {
	bs, per, err := CheckDevs(devs, 2)
	if err != nil {
		return nil, err
	}
	lay := layout.NewChained(layout.Geometry{Disks: len(devs), DiskBlocks: per})
	n := len(devs)
	a := &Chained{mirroredArray{
		mem:     NewMembers("chained", devs, bs, per),
		bs:      bs,
		blocks:  lay.DataBlocks(),
		primary: mapping{width: n, base: 0, diskOf: func(c int) int { return c }},
		mirror:  mapping{width: n, base: per / 2, diskOf: func(c int) int { return (c + 1) % n }},
	}}
	return a, nil
}

// Chained is the chained-declustering baseline.
type Chained struct{ mirroredArray }
