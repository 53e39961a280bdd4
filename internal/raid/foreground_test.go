package raid_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/vclock"
)

// runsOf merges block locations into device calls: one per physically
// contiguous run of each disk's blocks.
func runsOf(locs []layout.Loc, kind string) []raidtest.DevCall {
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Disk != locs[j].Disk {
			return locs[i].Disk < locs[j].Disk
		}
		return locs[i].Block < locs[j].Block
	})
	var calls []raidtest.DevCall
	for i := 0; i < len(locs); {
		j := i + 1
		for j < len(locs) && locs[j].Disk == locs[i].Disk && locs[j].Block == locs[j-1].Block+1 {
			j++
		}
		calls = append(calls, raidtest.DevCall{Disk: locs[i].Disk, Phys: locs[i].Block, Blocks: j - i, Kind: kind})
		i = j
	}
	return calls
}

// fgState is the member condition an operation runs under: the member no
// read may use and the member no write can reach (-1: none).
type fgState struct {
	name            string
	unread, unwrite int
	fail, blank     bool
}

// fgModel computes an operation's device calls over [b, b+n) and whether
// it must fail. rep is the operation's repetition within one run: the
// mirrored engines read their primary copy first, then their mirror copy.
type fgModel func(b int64, n int, write bool, rep int, st fgState) (calls []raidtest.DevCall, fails bool)

// wantStriped is RAID-0 and the mirrored engines: every copy of every
// block written, one copy read, a run on an unreadable member read from
// the other copy's run (no other copy: the read fails).
func wantStriped(copies ...func(int64) layout.Loc) fgModel {
	return func(b int64, n int, write bool, rep int, st fgState) ([]raidtest.DevCall, bool) {
		var calls []raidtest.DevCall
		fails := false
		if write {
			for _, at := range copies {
				var locs []layout.Loc
				for lb := b; lb < b+int64(n); lb++ {
					if l := at(lb); l.Disk != st.unwrite || len(copies) == 1 {
						locs = append(locs, l)
						fails = fails || l.Disk == st.unwrite
					}
				}
				calls = append(calls, runsOf(locs, "write")...)
			}
			return calls, fails
		}
		at, other := copies[0], copies[0]
		if len(copies) == 2 {
			at, other = copies[rep%2], copies[1-rep%2]
		}
		var direct, fallback []layout.Loc
		for lb := b; lb < b+int64(n); lb++ {
			switch l := at(lb); {
			case l.Disk != st.unread:
				direct = append(direct, l)
			case len(copies) == 1:
				fails = true
			default:
				fallback = append(fallback, other(lb))
			}
		}
		return append(runsOf(direct, "read"), runsOf(fallback, "read")...), fails
	}
}

// wantStripe is the parity engines with k data and m parity shards per
// stripe, shard j of stripe s on device shard(s, j) at physical block s.
// A read reconstructs every stripe holding a block on the unreadable
// member from each other member's shard, read in the same runs as the
// healthy blocks. An eager write
// updates a partial stripe by read-modify-write of its parity and
// covered shards — or, when a covered shard's member is down, re-encodes
// from the uncovered shards — and writes each full stripe's shards as
// one run per member. A deferred write moves data only, and fails whole
// when a block's member is down.
func wantStripe(n, k, m int, deferred bool, shard func(s int64, j int) int) fgModel {
	return func(b int64, cnt int, write bool, _ int, st fgState) ([]raidtest.DevCall, bool) {
		end := b + int64(cnt)
		var locs []layout.Loc
		var lost []int64
		for lb := b; lb < end; lb++ {
			s := lb / int64(k)
			d := shard(s, int(lb%int64(k)))
			if d == st.unread && !write {
				if len(lost) == 0 || lost[len(lost)-1] != s {
					lost = append(lost, s)
				}
				continue
			}
			if write && deferred && d == st.unwrite {
				return nil, true
			}
			locs = append(locs, layout.Loc{Disk: d, Block: s})
		}
		if !write {
			for _, s := range lost {
				for j := 0; j < k+m; j++ {
					lb := s*int64(k) + int64(j)
					if d := shard(s, j); d != st.unread && (j >= k || lb < b || lb >= end) {
						locs = append(locs, layout.Loc{Disk: d, Block: s})
					}
				}
			}
			return runsOf(locs, "read"), false
		}
		if deferred {
			return runsOf(locs, "write"), false
		}
		var calls []raidtest.DevCall
		var full []int64
		for s := b / int64(k); s <= (end-1)/int64(k); s++ {
			lo, hi := max(s*int64(k), b), min((s+1)*int64(k), end)
			if hi-lo == int64(k) {
				full = append(full, s)
				continue
			}
			var out, uncovered []int
			coveredDown := false
			for j := k; j < k+m; j++ {
				if d := shard(s, j); d != st.unwrite {
					out = append(out, d)
				}
			}
			parity := len(out)
			for j := 0; j < k; j++ {
				d, lb := shard(s, j), s*int64(k)+int64(j)
				switch {
				case lb >= lo && lb < hi && d == st.unwrite:
					coveredDown = true
				case lb >= lo && lb < hi:
					out = append(out, d)
				case d != st.unwrite:
					uncovered = append(uncovered, d)
				}
			}
			reads := out
			if coveredDown {
				reads = uncovered
			} else if parity == 0 {
				reads = nil
			}
			for _, d := range reads {
				calls = append(calls, raidtest.DevCall{Disk: d, Phys: s, Blocks: 1, Kind: "read"})
			}
			for _, d := range out {
				calls = append(calls, raidtest.DevCall{Disk: d, Phys: s, Blocks: 1, Kind: "write"})
			}
		}
		if len(full) > 0 {
			for d := 0; d < n; d++ {
				if d != st.unwrite {
					calls = append(calls, raidtest.DevCall{Disk: d, Phys: full[0], Blocks: len(full), Kind: "write"})
				}
			}
		}
		return calls, false
	}
}

// TestCallsForeground pins where every engine's foreground I/O goes: the
// exact (disk, physical block, length, read|write) set of one-block,
// full-stripe and unaligned multi-stripe reads and writes — healthy, with
// the member holding the one-block operation's block failed, and on the
// mirrored engines with that member emptied and handed back through
// SwapDev — against expectations computed from internal/layout alone. It
// runs on the virtual clock, where arrival order is issue order, and also
// requires that order to repeat exactly run over run. A read runs twice
// per run, so the mirrored engines read each copy once.
func TestCallsForeground(t *testing.T) {
	const per = 48 // blocks per device
	geo := func(n int) layout.Geometry { return layout.Geometry{Disks: n, DiskBlocks: per} }
	r0, r10, ch := layout.NewRAID0(geo(4)), layout.NewRAID10(geo(4)), layout.NewChained(geo(4))
	r5 := layout.NewRAID5(geo(4))
	raid5Shard := func(s int64, j int) int {
		if j < 3 {
			return r5.DataLoc(s*3 + int64(j)).Disk
		}
		return r5.ParityDisk(s)
	}
	// rs rotates forward: shard j of stripe s on device (s + j) mod n.
	rsShard := func(s int64, j int) int { return layout.NewRAID0(geo(8)).DataLoc(s + int64(j)).Disk }
	engines := []struct {
		raidtest.Engine
		width  int  // data blocks per stripe
		mirror bool // also run with a blank member
		want   fgModel
		victim int // holder of block 5
	}{
		{raidtest.RAID0(4), 4, false, wantStriped(r0.DataLoc), r0.DataLoc(5).Disk},
		{raidtest.RAID10(4), 2, true, wantStriped(r10.DataLoc, r10.MirrorLoc), r10.DataLoc(5).Disk},
		{raidtest.Chained(4), 4, true, wantStriped(ch.DataLoc, ch.MirrorLoc), ch.DataLoc(5).Disk},
		{raidtest.RAID5(4), 3, false, wantStripe(4, 3, 1, false, raid5Shard), raid5Shard(1, 2)},
		{raidtest.RS(6, 2), 6, false, wantStripe(8, 6, 2, false, rsShard), rsShard(0, 5)},
		{raidtest.AFRAID(4), 3, false, wantStripe(4, 3, 1, true, raid5Shard), raid5Shard(1, 2)},
	}
	for _, e := range engines {
		states := []fgState{{name: "healthy", unread: -1, unwrite: -1}, {"failed", e.victim, e.victim, true, false}}
		if e.mirror {
			states = append(states, fgState{"blank", e.victim, -1, false, true})
		}
		w := int64(e.width)
		ops := []struct {
			name string
			b    int64
			n    int
		}{
			{"one-block", 5, 1},
			{"full-stripe", 2 * w, e.width},
			{"unaligned multi-stripe", w + 1, 3 * e.width},
		}
		for _, st := range states {
			t.Run(e.Name+"/"+st.name, func(t *testing.T) {
				s, rec := vclock.New(), &raidtest.Recorder{}
				model := disk.Model{BandwidthBps: 64e6, PerRequest: 50 * time.Microsecond}
				a, raw := raidtest.Build[raid.Array](t, e.Engine, raidtest.Disks{Blocks: per, Sim: s, Model: model, Wrap: rec.Dev})
				s.Spawn("client", func(p *vclock.Proc) {
					ctx := vclock.With(context.Background(), p)
					if err := raidtest.NewShadow(a).Write(ctx, 0, a.Blocks()); err != nil {
						t.Error(err)
						return
					}
					if err := a.Flush(ctx); err != nil {
						t.Error(err)
						return
					}
					switch {
					case st.fail:
						raw[e.victim].Fail()
					case st.blank:
						if err := raw[e.victim].Replace(); err != nil {
							t.Error(err)
							return
						}
						// The member's own device, as the engine holds it.
						own := a.(raid.Restorer).Members().Load().Devs[e.victim]
						if _, err := a.(raid.DevSwapper).SwapDev(e.victim, own); err != nil {
							t.Error(err)
							return
						}
					}
					// Reads first: a deferred-parity write leaves its stripes
					// without parity for a read to reconstruct from.
					for _, write := range []bool{false, true} {
						for _, op := range ops {
							what := fmt.Sprintf("%s %s [%d,+%d)", op.name, map[bool]string{false: "read", true: "write"}[write], op.b, op.n)
							reps := 2
							if write {
								reps = 1
							}
							var want []raidtest.DevCall
							fails := false
							for rep := 0; rep < reps; rep++ {
								c, f := e.want(op.b, op.n, write, rep, st)
								want, fails = append(want, c...), fails || f
							}
							run := func() []raidtest.DevCall {
								rec.Take()
								buf := make([]byte, op.n*raidtest.BS)
								for rep := 0; rep < reps; rep++ {
									do := a.ReadBlocks
									if write {
										do = a.WriteBlocks
									}
									if err := do(ctx, op.b, buf); (err != nil) != fails {
										t.Errorf("%s: err = %v, want failure %v", what, err, fails)
									}
								}
								return rec.Take()
							}
							first, again := run(), run()
							if !reflect.DeepEqual(first, again) {
								t.Errorf("%s: issue order changed between two runs:\n first %v\n again %v", what, first, again)
							}
							if got, want := raidtest.Sorted(first), raidtest.Sorted(want); !reflect.DeepEqual(got, want) {
								t.Errorf("%s: device calls\n got  %v\n want %v", what, got, want)
							}
						}
					}
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
