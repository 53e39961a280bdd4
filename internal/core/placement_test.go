package core_test

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/vclock"
)

// placer is what layout.OSM and *layout.Epoch have in common: the
// expectations below are computed from it, never from the engine.
type placer interface {
	DataLoc(int64) layout.Loc
	MirrorLoc(int64) layout.Loc
}

// wantCalls computes the call set for [b, b+n) straight from the layout:
// one transfer per physically contiguous run of each disk's data blocks,
// and (for writes) one deferred transfer per run of consecutive blocks
// whose images are contiguous. Blocks on a down disk are read one by one
// from their images.
func wantCalls(lay placer, b int64, n int, write bool, down int) []raidtest.DevCall {
	perDisk := map[int][]int64{}
	var calls []raidtest.DevCall
	for lb := b; lb < b+int64(n); lb++ {
		d := lay.DataLoc(lb)
		if d.Disk == down {
			m := lay.MirrorLoc(lb)
			calls = append(calls, raidtest.DevCall{Disk: m.Disk, Phys: m.Block, Blocks: 1, Kind: "read"})
			continue
		}
		perDisk[d.Disk] = append(perDisk[d.Disk], d.Block)
	}
	kind := "read"
	if write {
		kind = "write"
	}
	for dsk, phys := range perDisk {
		sort.Slice(phys, func(i, j int) bool { return phys[i] < phys[j] })
		for i := 0; i < len(phys); {
			j := i + 1
			for j < len(phys) && phys[j] == phys[j-1]+1 {
				j++
			}
			calls = append(calls, raidtest.DevCall{Disk: dsk, Phys: phys[i], Blocks: j - i, Kind: kind})
			i = j
		}
	}
	for lb := b; write && lb < b+int64(n); {
		m, c := lay.MirrorLoc(lb), 1
		for ; lb+int64(c) < b+int64(n); c++ {
			if next := lay.MirrorLoc(lb + int64(c)); next.Disk != m.Disk || next.Block != m.Block+int64(c) {
				break
			}
		}
		calls = append(calls, raidtest.DevCall{Disk: m.Disk, Phys: m.Block, Blocks: c, Kind: "bg-write"})
		lb += int64(c)
	}
	return calls
}

// TestCallsPlacement pins where the engine's one placement path sends
// every device call — (disk, physical block, length, foreground or
// background) — at the base layout and after a committed 4 -> 6 node
// grow, against expectations computed from internal/layout alone. It
// runs on the virtual clock, where arrival order is issue order, and
// also requires that order to repeat exactly run over run.
func TestCallsPlacement(t *testing.T) {
	const blocks = 48 // per disk: 24 data blocks in 8 mirror-group slots
	osm := layout.NewOSM(4, 1, blocks)
	grown, err := layout.NewEpoch(osm).Grow(2)
	if err != nil {
		t.Fatal(err)
	}
	// Base disks keep their low data offsets through a grow and give the
	// rest away, so logical blocks from moved on (a stripe boundary) sit
	// on override placements at generation 1.
	moved := int64(0)
	for d, _ := grown.Moved(moved); !d; d, _ = grown.Moved(moved) {
		moved++
	}
	if moved%4 != 0 || moved+8 > osm.DataBlocks() {
		t.Fatalf("first moved block %d: want a stripe boundary with two stripes after it", moved)
	}
	cases := []struct {
		name     string
		b        int64
		n        int
		write    bool
		degraded bool // fail the disk holding block b for the op
	}{
		{"one-block write", 5, 1, true, false},
		{"one-block write, moved by the grow", moved + 1, 1, true, false},
		{"full-stripe write", 8, 4, true, false},
		{"full-stripe write, moved by the grow", moved + 4, 4, true, false},
		{"unaligned write over three mirror groups", 2, 5, true, false},
		{"write straddling base and moved blocks", moved - 3, 6, true, false},
		{"full-stripe read", 8, 4, false, false},
		{"read straddling base and moved blocks", moved - 3, 6, false, false},
		{"degraded read", 5, 8, false, true},
		{"degraded read over moved blocks", moved - 2, 8, false, true},
	}
	for gen, lay := range []placer{osm, grown} {
		s, rec := vclock.New(), &raidtest.Recorder{}
		g := raidtest.Disks{BS: 1024, Blocks: blocks, Sim: s, Model: disk.Model{BandwidthBps: 64e6, PerRequest: 50 * time.Microsecond}, Wrap: rec.Dev}
		a, raw := raidtest.Build[*core.RAIDx](t, raidtest.RAIDx(4, 1), g)
		s.Spawn("client", func(p *vclock.Proc) {
			ctx := vclock.With(context.Background(), p)
			if gen == 1 {
				// The grown members record as disks 4 and 5.
				g.Wrap = func(i int, d raid.Dev) raid.Dev { return rec.Dev(4+i, d) }
				devs, more := g.Make(2)
				raw = append(raw, more...)
				m, err := a.BeginGrow(2, devs, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.Run(ctx, nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
			for _, c := range cases {
				down := -1
				if c.degraded {
					down = lay.DataLoc(c.b).Disk
				}
				op := func() []raidtest.DevCall {
					if down >= 0 {
						raw[down].Fail()
						defer raw[down].Readmit()
					}
					rec.Take()
					buf := make([]byte, c.n*a.BlockSize())
					do := a.ReadBlocks
					if c.write {
						do = a.WriteBlocks
					}
					if err := do(ctx, c.b, buf); err != nil {
						t.Errorf("gen %d, %s: %v", gen, c.name, err)
					}
					if err := a.Flush(ctx); err != nil {
						t.Errorf("gen %d, %s: flush: %v", gen, c.name, err)
					}
					return rec.Take()
				}
				first, again := op(), op()
				if !reflect.DeepEqual(first, again) {
					t.Errorf("gen %d, %s: issue order changed between two runs:\n first %v\n again %v", gen, c.name, first, again)
				}
				want := raidtest.Sorted(wantCalls(lay, c.b, c.n, c.write, down))
				if got := raidtest.Sorted(first); !reflect.DeepEqual(got, want) {
					t.Errorf("gen %d, %s: device calls\n got  %v\n want %v", gen, c.name, got, want)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
