package raid_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/raid"
	"repro/internal/raid/raidtest"
	"repro/internal/vclock"
)

// inWindowWait counts the goroutines parked in a raid.Window wait.
func inWindowWait() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "raid.(*Window).wait(")
}

// TestWindowRealTime: on the sync.Cond backend a write overlapping a claim
// waits for its release, a disjoint one does not, and a claim waits for
// the writes admitted before it.
func TestWindowRealTime(t *testing.T) {
	var w raid.Window
	ctx := context.Background()
	claim := w.Open(ctx, raid.Span{Dev: 1, Lo: 0, Hi: 8})
	for _, s := range []raid.Span{{Dev: 2, Lo: 0, Hi: 8}, {Dev: 1, Lo: 8, Hi: 9}, {Dev: -1, Lo: 8, Hi: 16}} {
		w.Exit(w.Enter(ctx, s)) // disjoint: no wait
	}
	entered := make(chan struct{})
	go func() {
		w.Exit(w.Enter(ctx, raid.Span{Dev: -1, Lo: 7, Hi: 8})) // a row through the claim
		close(entered)
	}()
	raidtest.Eventually(t, "the overlapping write to wait", func() bool { return inWindowWait() == 1 })
	select {
	case <-entered:
		t.Fatal("a write overlapping a claim went through")
	default:
	}
	w.Commit(claim)
	<-entered

	// Claim-then-drain: a write admitted before the claim holds it up,
	// whatever its span, until it exits.
	write := w.Enter(ctx, raid.Span{Dev: 0, Lo: 0, Hi: 1})
	opened := make(chan raid.Ticket)
	go func() { opened <- w.Open(ctx, raid.Span{Dev: 3, Lo: 0, Hi: 1}) }()
	raidtest.Eventually(t, "the claim to drain", func() bool { return inWindowWait() == 1 })
	w.Exit(write)
	claim = <-opened
	// A write registered under an open claim holds up only a claim it overlaps.
	write = w.Enter(ctx, raid.Span{Dev: 0, Lo: 0, Hi: 1})
	w.Commit(w.Open(ctx, raid.Span{Dev: 0, Lo: 1, Hi: 2}))
	w.Exit(write)
	w.Commit(claim)
}

// TestWindowNoStarvation: a copier claiming spans that a steady stream of
// writers keeps hitting still gets every claim.
func TestWindowNoStarvation(t *testing.T) {
	var w raid.Window
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Exit(w.Enter(ctx, raid.Span{Dev: 0, Lo: 0, Hi: 4}))
			}
		}()
	}
	for i := 0; i < 200; i++ {
		w.Commit(w.Open(ctx, raid.Span{Dev: 0, Lo: 2, Hi: 3}))
	}
	close(stop)
	wg.Wait()
}

// TestWindowVclock is the same contract on the vclock.Gate backend, timed
// in virtual time: the overlapping write resumes at the release, the
// disjoint one at once, the claim after the write it drains, and a claim
// amid a steady stream of writers within one write's duration.
func TestWindowVclock(t *testing.T) {
	const ms = time.Millisecond
	s := vclock.New()
	var w raid.Window
	at := map[string]time.Duration{}
	proc := func(name string, fn func(ctx context.Context, p *vclock.Proc)) {
		s.Spawn(name, func(p *vclock.Proc) {
			fn(vclock.With(context.Background(), p), p)
			at[name] = p.Now()
		})
	}
	proc("copier", func(ctx context.Context, p *vclock.Proc) {
		c := w.Open(ctx, raid.Span{Dev: 0, Lo: 0, Hi: 8})
		p.Sleep(ms)
		w.Commit(c)
	})
	proc("overlapping", func(ctx context.Context, p *vclock.Proc) {
		w.Exit(w.Enter(ctx, raid.Span{Dev: 0, Lo: 4, Hi: 5}))
	})
	proc("disjoint", func(ctx context.Context, p *vclock.Proc) {
		w.Exit(w.Enter(ctx, raid.Span{Dev: 1, Lo: 4, Hi: 5}))
	})
	proc("writer", func(ctx context.Context, p *vclock.Proc) {
		p.Sleep(2 * ms)
		tk := w.Enter(ctx, raid.Span{Dev: 2, Lo: 0, Hi: 1})
		p.Sleep(2 * ms)
		w.Exit(tk)
	})
	proc("drainer", func(ctx context.Context, p *vclock.Proc) {
		p.Sleep(3 * ms)
		w.Commit(w.Open(ctx, raid.Span{Dev: 3, Lo: 0, Hi: 1}))
	})
	// Four writers 25 µs apart, each holding the span for 100 µs, until
	// 10 ms; a claim opened amid them at 6 ms.
	for i := 0; i < 4; i++ {
		proc("stream"+string(rune('0'+i)), func(ctx context.Context, p *vclock.Proc) {
			p.Sleep(5*ms + time.Duration(i)*25*time.Microsecond)
			for p.Now() < 10*ms {
				tk := w.Enter(ctx, raid.Span{Dev: 4, Lo: 0, Hi: 4})
				p.Sleep(100 * time.Microsecond)
				w.Exit(tk)
			}
		})
	}
	proc("amid", func(ctx context.Context, p *vclock.Proc) {
		p.Sleep(6 * ms)
		c := w.Open(ctx, raid.Span{Dev: 4, Lo: 2, Hi: 3})
		at["amid.open"] = p.Now()
		w.Commit(c)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"overlapping": ms, "disjoint": 0, "drainer": 4 * ms}
	for name, when := range want {
		if at[name] != when {
			t.Errorf("%s finished at %v, want %v", name, at[name], when)
		}
	}
	if got := at["amid.open"]; got < 6*ms || got > 6*ms+100*time.Microsecond {
		t.Errorf("claim amid the writer stream opened at %v, want within one write of 6ms", got)
	}
}

// gatedDev parks the first write after arm until release — a restore
// chunk stopped between its Reconstruct and its write to the target — and
// counts the writes that reach the device meanwhile.
type gatedDev struct {
	raid.Dev
	mu               sync.Mutex
	armed, holding   bool
	parked, released chan struct{}
	passed           int
}

func (d *gatedDev) arm() {
	d.mu.Lock()
	d.armed, d.parked, d.released = true, make(chan struct{}), make(chan struct{})
	d.mu.Unlock()
}

func (d *gatedDev) gate() {
	d.mu.Lock()
	park := d.armed
	if d.armed = false; d.holding {
		d.passed++
	}
	d.holding = d.holding || park
	d.mu.Unlock()
	if park {
		close(d.parked)
		<-d.released
		d.mu.Lock()
		d.holding = false
		d.mu.Unlock()
	}
}

func (d *gatedDev) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	d.gate()
	return d.Dev.WriteBlocks(ctx, b, p)
}

func (d *gatedDev) WriteBlocksBackground(ctx context.Context, b int64, p []byte) error {
	d.gate()
	return d.Dev.WriteBlocksBackground(ctx, b, p)
}

// TestWindowRestoreChunk is the lost update the window closes: a resync
// parks a restore chunk between reading the other members and writing the
// target, and a foreground write into the chunk must wait for it — else
// the restore lands the bytes it read before the write over the write's.
// After release and Flush the member holds the foreground bytes (read
// with each other member down in turn), Verify is clean, and the intent
// log drains.
func TestWindowRestoreChunk(t *testing.T) {
	const per, victim, region = 300, 1, 16
	for _, e := range []raidtest.Engine{raidtest.RAIDx(4, 1).Named("raidx"), raidtest.RS(4, 2), raidtest.RAID5(4), raidtest.Chained(4)} {
		t.Run(e.Name, func(t *testing.T) {
			ctx := context.Background()
			var gd *gatedDev
			il := intent.NewLog(e.N, per, 8)
			a, raw := raidtest.Build[raidtest.Array](t, e.With(core.Options{Intent: il}), raidtest.Disks{Blocks: per, Wrap: func(i int, d raid.Dev) raid.Dev {
				if i == victim {
					gd = &gatedDev{Dev: d}
					return gd
				}
				return d
			}})
			sh := raidtest.Fill(t, a)
			// The victim misses a write, comes back stale, and is resynced.
			raw[victim].Fail()
			if err := sh.Write(ctx, 0, region); err != nil {
				t.Fatal(err)
			}
			raw[victim].Readmit()
			regions := il.TakeDirty(victim)
			if len(regions) == 0 {
				t.Fatal("the missed write left no intent")
			}
			gd.arm()
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(gd.released) }) }
			defer release()
			resynced := make(chan error, 1)
			go func() {
				_, err := raid.Resync(ctx, a, victim, regions, nil)
				resynced <- err
			}()
			<-gd.parked

			wrote := make(chan error, 1)
			go func() { wrote <- sh.Write(ctx, 0, region) }()
			raidtest.Eventually(t, "the foreground write to wait for the parked chunk", func() bool {
				select {
				case err := <-wrote:
					t.Fatalf("foreground write returned (%v) while the restore chunk was parked", err)
				default:
				}
				gd.mu.Lock()
				passed := gd.passed
				gd.mu.Unlock()
				if passed > 0 {
					t.Fatal("a foreground write reached the member while its restore chunk was parked")
				}
				return inWindowWait() > 0
			})
			release()
			if err := <-resynced; err != nil {
				t.Fatalf("resync: %v", err)
			}
			if err := <-wrote; err != nil {
				t.Fatalf("foreground write: %v", err)
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(ctx); err != nil {
				t.Fatalf("verify: %v", err)
			}
			for pass := 0; raidtest.Missed(il, e.N) != 0; pass++ {
				if pass > 10 {
					t.Fatal("intent log never drained")
				}
				for i := 0; i < e.N; i++ {
					if regions := il.TakeDirty(i); len(regions) > 0 {
						if _, err := raid.Resync(ctx, a, i, regions, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for i := range raw {
				if i == victim {
					continue
				}
				raw[i].Fail()
				if err := sh.Diff(ctx, 0, region); err != nil {
					t.Fatalf("with member %d down: %v", i, err)
				}
				raw[i].Readmit()
			}
		})
	}
}

// heldDev keeps background writes off the device until a Flush, or a
// foreground write over them, lands them — a remote member's background
// lane: a compare that reads an image too early sees the old one.
type heldDev struct {
	raid.Dev
	mu      sync.Mutex
	held    []heldWrite
	flushes int
}

type heldWrite struct {
	b int64
	p []byte
}

func (d *heldDev) WriteBlocksBackground(_ context.Context, b int64, p []byte) error {
	d.mu.Lock()
	d.held = append(d.held, heldWrite{b, bytes.Clone(p)})
	d.mu.Unlock()
	return nil
}

// land writes the held writes overlapping [lo, hi) through, oldest first;
// d.mu is held.
func (d *heldDev) land(ctx context.Context, lo, hi int64) error {
	var keep []heldWrite
	for i, w := range d.held {
		if w.b >= hi || lo >= w.b+int64(len(w.p)/d.BlockSize()) {
			keep = append(keep, w)
		} else if err := d.Dev.WriteBlocks(ctx, w.b, w.p); err != nil {
			d.held = append(keep, d.held[i:]...)
			return err
		}
	}
	d.held = keep
	return nil
}

func (d *heldDev) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.land(ctx, b, b+int64(len(p)/d.BlockSize())); err != nil {
		return err
	}
	return d.Dev.WriteBlocks(ctx, b, p)
}

func (d *heldDev) Flush(ctx context.Context) error {
	d.mu.Lock()
	d.flushes++
	err := d.land(ctx, 0, math.MaxInt64)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.Dev.Flush(ctx)
}

// TestWindowVerifyBesideWriter: Verify and a stride-1 ScrubSample of
// every member loop beside a writer that rewrites random ranges with
// stamped blocks. Each compare chunk is a claim in the members' window,
// so neither may count a mismatch. In the last row every member holds
// its background writes until a flush: a compare that read an image still
// on its way must flush and look again before it counts. Afterwards the
// array reads back the writer's last stamps and verifies clean.
func TestWindowVerifyBesideWriter(t *testing.T) {
	const per = 300
	raidx := raidtest.RAIDx(4, 1)
	cases := []struct {
		raidtest.Engine
		held bool
	}{
		{raidx.Named("raidx"), false},
		{raidtest.RS(4, 2), false},
		{raidtest.RAID5(4), false},
		{raidtest.Chained(4), false},
		{raidx.Named("raidx, images held until flush"), true},
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			ctx := context.Background()
			var held []*heldDev
			g := raidtest.Disks{Blocks: per}
			if c.held {
				g.Wrap = func(_ int, d raid.Dev) raid.Dev {
					held = append(held, &heldDev{Dev: d})
					return held[len(held)-1]
				}
			}
			a, _ := raidtest.Build[raidtest.Array](t, c.Engine, g)
			sh := raidtest.Fill(t, a)
			// Unflushed: the first compare meets it whatever the schedule.
			if err := sh.Write(ctx, 0, 8); err != nil {
				t.Fatal(err)
			}
			stop, done := make(chan struct{}), make(chan struct{})
			var writes atomic.Int64
			go func() {
				defer close(done)
				rng := rand.New(rand.NewSource(1))
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := 1 + rng.Int63n(8)
					if err := sh.Write(ctx, rng.Int63n(a.Blocks()-n+1), n); err != nil {
						t.Error(err)
						return
					}
					writes.Add(1)
				}
			}()
			halt := sync.OnceFunc(func() { close(stop); <-done })
			defer halt()
			// At least three rounds, and until the writer is well under way.
			for round := 0; round < 3 || writes.Load() < 200; round++ {
				select {
				case <-done:
					t.Fatal("the writer stopped")
				default:
				}
				if st, err := raid.Verify(ctx, a); err != nil || st.Mismatches != 0 {
					t.Fatalf("round %d: verify beside the writer: %+v, %v", round, st, err)
				}
				for idx := 0; idx < c.N; idx++ {
					if st, err := raid.ScrubSample(ctx, a, idx, 1, nil); err != nil || st.Mismatches != 0 {
						t.Fatalf("round %d: scrub of member %d beside the writer: %+v, %v", round, idx, st, err)
					}
				}
			}
			halt()
			for i, d := range held {
				d.mu.Lock()
				flushes := d.flushes
				d.mu.Unlock()
				if flushes == 0 {
					t.Errorf("member %d: no compare flushed to confirm a held image", i)
				}
			}
			if err := a.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if st, err := raid.Verify(ctx, a); err != nil || st.Mismatches != 0 || st.BlocksChecked == 0 {
				t.Fatalf("verify after the writer stopped: %+v, %v", st, err)
			}
			sh.Check(t, "after the writer stopped")
		})
	}
}
