// Package raidtest is the rig the engine tests share: the table of array
// architectures the paper compares, mem disks to build them over, a
// device that records the calls an engine makes, a stamped shadow of
// what an array must hold, and one poll helper. It imports core, so only
// external test packages (raid_test, core_test, repair_test) use it.
package raidtest

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/intent"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/vclock"
)

// BS is the block size of the test disks unless a test asks for another.
const BS = 256

// Array is what every redundant engine offers: the one restore loop, hot
// swap and Verify.
type Array interface {
	raid.Array
	raid.Restorer
	raid.DevSwapper
	raid.Verifier
}

// Engine is one row of the comparison set: a name, a member count and a
// constructor over the members.
type Engine struct {
	Name  string
	N     int
	opt   core.Options
	build func(devs []raid.Dev, opt core.Options) (raid.Array, error)
}

// Named is e under another name.
func (e Engine) Named(name string) Engine { e.Name = name; return e }

// With is e built with opt. RAID-x takes opt as core.New does; every other
// row takes its intent log, registry and tracer through
// Members().Attach, the same wiring without RAID-x's own metrics.
func (e Engine) With(opt core.Options) Engine { e.opt = opt; return e }

// New builds e over devs.
func (e Engine) New(devs []raid.Dev) (raid.Array, error) { return e.build(devs, e.opt) }

// attached is the constructor of an internal/raid engine, wired to opt
// through its member table when it has one.
func attached[A raid.Array](build func([]raid.Dev) (A, error)) func([]raid.Dev, core.Options) (raid.Array, error) {
	return func(devs []raid.Dev, opt core.Options) (raid.Array, error) {
		a, err := build(devs)
		if err != nil {
			return nil, err
		}
		if r, ok := any(a).(raid.Restorer); ok {
			r.Members().Attach(opt.Intent, opt.Obs, opt.Trace)
		}
		return a, nil
	}
}

// RAID0, RAID5, RAID10, Chained and AFRAID are those engines over n
// members.
func RAID0(n int) Engine {
	return Engine{Name: fmt.Sprintf("raid0(%d)", n), N: n, build: attached(raid.NewRAID0)}
}

func RAID5(n int) Engine {
	return Engine{Name: fmt.Sprintf("raid5(%d)", n), N: n, build: attached(raid.NewRAID5)}
}

func RAID10(n int) Engine {
	return Engine{Name: fmt.Sprintf("raid10(%d)", n), N: n, build: attached(raid.NewRAID10)}
}

func Chained(n int) Engine {
	return Engine{Name: fmt.Sprintf("chained(%d)", n), N: n, build: attached(raid.NewChained)}
}

func AFRAID(n int) Engine {
	return Engine{Name: fmt.Sprintf("afraid(%d)", n), N: n, build: attached(raid.NewAFRAID)}
}

// RS is the rs(k,m) erasure-coded stripe.
func RS(k, m int) Engine {
	return Engine{Name: fmt.Sprintf("rs(%d,%d)", k, m), N: k + m, build: attached(func(d []raid.Dev) (*raid.Stripe, error) {
		return raid.NewRS(d, m)
	})}
}

// RAIDx is the OSM array of nodes × per disks, the paper's engine.
func RAIDx(nodes, per int) Engine {
	return Engine{Name: fmt.Sprintf("raidx %dx%d", nodes, per), N: nodes * per, build: func(d []raid.Dev, opt core.Options) (raid.Array, error) {
		return core.New(d, nodes, per, opt)
	}}
}

// Engines is the comparison set, one row per engine and geometry.
func Engines() []Engine {
	return []Engine{
		RAID0(4), RAID5(4), RAID5(5), RAID10(4), Chained(4),
		RS(5, 1), RS(4, 2), RS(6, 2), RS(4, 3), AFRAID(4),
		RAIDx(4, 1), RAIDx(4, 3),
	}
}

// Disks describes a set of mem disks.
type Disks struct {
	BS     int         // bytes a block (0: BS)
	Blocks int64       // blocks a disk
	Sim    *vclock.Sim // the clock they run on (nil: real time)
	Model  disk.Model  // their timing (zero: disk.DefaultModel())
	// Wrap, when set, interposes on member i before an engine sees it.
	Wrap func(i int, d raid.Dev) raid.Dev
}

// Make builds n disks, and the devices an engine is built over.
func (g Disks) Make(n int) ([]raid.Dev, []*disk.Disk) {
	if g.BS == 0 {
		g.BS = BS
	}
	if g.Model == (disk.Model{}) {
		g.Model = disk.DefaultModel()
	}
	devs, raw := make([]raid.Dev, n), make([]*disk.Disk, n)
	for i := range devs {
		raw[i] = disk.New(g.Sim, fmt.Sprintf("d%d", i), store.NewMem(g.BS, g.Blocks), g.Model)
		devs[i] = raw[i]
		if g.Wrap != nil {
			devs[i] = g.Wrap(i, raw[i])
		}
	}
	return devs, raw
}

// Build builds e over e.N fresh disks of g and returns it as an A, with
// the disks for failure injection.
func Build[A raid.Array](t testing.TB, e Engine, g Disks) (A, []*disk.Disk) {
	t.Helper()
	devs, raw := g.Make(e.N)
	a, err := e.New(devs)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	arr, ok := a.(A)
	if !ok {
		t.Fatalf("%s is not a %T", e.Name, arr)
	}
	return arr, raw
}

// DevCall is one device call as an engine issued it; a vectored call is
// one call.
type DevCall struct {
	Disk   int
	Phys   int64
	Blocks int
	Kind   string // "read", "write" or "bg-write"
}

// Recorder logs the calls made to the devices it wraps, in arrival order.
type Recorder struct {
	mu    sync.Mutex
	calls []DevCall
}

// Dev wraps d as member col. It passes raid.VecDev and raid.GroupDev on,
// so an engine gathers and groups over it as it would over a remote disk;
// a grouped call logs the calls it stands for.
func (r *Recorder) Dev(col int, d raid.Dev) raid.Dev { return &recorded{d, col, r} }

// Take returns the calls logged since the last Take.
func (r *Recorder) Take() []DevCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

// Sorted orders calls by disk, physical block, length and kind.
func Sorted(c []DevCall) []DevCall {
	slices.SortFunc(c, func(x, y DevCall) int {
		return cmp.Or(cmp.Compare(x.Disk, y.Disk), cmp.Compare(x.Phys, y.Phys),
			cmp.Compare(x.Blocks, y.Blocks), strings.Compare(x.Kind, y.Kind))
	})
	return c
}

type recorded struct {
	raid.Dev
	col int
	r   *Recorder
}

func (d *recorded) log(b int64, bytes int, kind string) {
	d.r.mu.Lock()
	d.r.calls = append(d.r.calls, DevCall{d.col, b, bytes / d.BlockSize(), kind})
	d.r.mu.Unlock()
}

func (d *recorded) ReadBlocks(ctx context.Context, b int64, p []byte) error {
	d.log(b, len(p), "read")
	return d.Dev.ReadBlocks(ctx, b, p)
}

func (d *recorded) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	d.log(b, len(p), "write")
	return d.Dev.WriteBlocks(ctx, b, p)
}

func (d *recorded) WriteBlocksBackground(ctx context.Context, b int64, p []byte) error {
	d.log(b, len(p), "bg-write")
	return d.Dev.WriteBlocksBackground(ctx, b, p)
}

func (d *recorded) ReadBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	d.log(b, size(segs), "read")
	return raid.ReadBlocksVec(ctx, d.Dev, b, segs)
}

func (d *recorded) WriteBlocksVec(ctx context.Context, b int64, segs [][]byte) error {
	d.log(b, size(segs), "write")
	return raid.WriteBlocksVec(ctx, d.Dev, b, segs)
}

func (d *recorded) WriteBlocksWith(ctx context.Context, b int64, segs [][]byte, bg []raid.Run) error {
	d.log(b, size(segs), "write")
	for _, r := range bg {
		d.log(r.Phys, len(r.Data), "bg-write")
	}
	if g, ok := d.Dev.(raid.GroupDev); ok {
		return g.WriteBlocksWith(ctx, b, segs, bg)
	}
	if err := raid.WriteBlocksVec(ctx, d.Dev, b, segs); err != nil {
		return err
	}
	for _, r := range bg {
		if err := d.Dev.WriteBlocksBackground(ctx, r.Phys, r.Data); err != nil {
			return err
		}
	}
	return nil
}

func size(segs [][]byte) (n int) {
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// stamp is what each 16 bytes of a block written through a Shadow hold,
// the benchmark's block stamp: the writer, its sequence number for the
// block, and the block. A block never written holds the zero stamp; a
// Shadow writes as writer 1.
type stamp struct {
	Writer, Seq uint32
	Block       uint64
}

// Shadow is what an array must hold, one stamp per block. Writers of
// disjoint ranges may use it concurrently.
type Shadow struct {
	a    raid.Array
	want []stamp
}

// NewShadow is the shadow of a fresh array: every block zero.
func NewShadow(a raid.Array) *Shadow { return &Shadow{a, make([]stamp, a.Blocks())} }

// On is the shadow, stamps shared, of a: an array that must hold the same
// blocks, such as a copy or the same disks reopened.
func (s *Shadow) On(a raid.Array) *Shadow { c := *s; c.a = a; return &c }

// Fill writes every block of a under a new shadow and flushes.
func Fill(t testing.TB, a raid.Array) *Shadow {
	t.Helper()
	s, ctx := NewShadow(a), context.Background()
	if err := s.Write(ctx, 0, a.Blocks()); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if err := a.Flush(ctx); err != nil {
		t.Fatalf("fill: flush: %v", err)
	}
	return s
}

// Write stamps blocks [b, b+n) with their next sequence numbers and
// writes them. The shadow counts the write whether or not it succeeds.
func (s *Shadow) Write(ctx context.Context, b, n int64) error {
	bs := int64(s.a.BlockSize())
	p := make([]byte, n*bs)
	for lb := b; lb < b+n; lb++ {
		s.want[lb] = stamp{1, s.want[lb].Seq + 1, uint64(lb)}
		for off := (lb - b) * bs; off < (lb-b+1)*bs; off += 16 {
			binary.LittleEndian.PutUint32(p[off:], 1)
			binary.LittleEndian.PutUint32(p[off+4:], s.want[lb].Seq)
			binary.LittleEndian.PutUint64(p[off+8:], uint64(lb))
		}
	}
	return s.a.WriteBlocks(ctx, b, p)
}

// Refused takes back the stamps of a Write that the array refused before
// it moved a block (ErrDataLoss at plan time): the blocks keep their last
// ones.
func (s *Shadow) Refused(b, n int64) {
	for lb := b; lb < b+n; lb++ {
		s.want[lb].Seq--
	}
}

// Diff reads blocks [b, b+n) back and names the first one that does not
// hold its stamp, with the stamp it holds instead.
func (s *Shadow) Diff(ctx context.Context, b, n int64) error {
	bs := int64(s.a.BlockSize())
	p := make([]byte, n*bs)
	if err := s.a.ReadBlocks(ctx, b, p); err != nil {
		return fmt.Errorf("read [%d,+%d): %w", b, n, err)
	}
	for off := int64(0); off < int64(len(p)); off += 16 {
		lb := b + off/bs
		got := stamp{binary.LittleEndian.Uint32(p[off:]), binary.LittleEndian.Uint32(p[off+4:]), binary.LittleEndian.Uint64(p[off+8:])}
		if got != s.want[lb] {
			return fmt.Errorf("block %d holds %+v at byte %d, want %+v", lb, got, off%bs, s.want[lb])
		}
	}
	return nil
}

// Check reads the whole array back and fails the test at the first block
// that does not hold its stamp.
func (s *Shadow) Check(t testing.TB, what string) {
	t.Helper()
	if err := s.Diff(context.Background(), 0, s.a.Blocks()); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// Eventually polls cond every millisecond until it holds, and fails the
// test naming what it waited for if ten seconds pass first.
func Eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Missed sums the blocks il holds missed, or taken by a job that has not
// committed them, over members [0, n): zero once every member is
// repaired.
func Missed(il *intent.Log, n int) int64 {
	var sum int64
	for i := range n {
		sum += il.MissedBlocks(i)
	}
	return sum
}
