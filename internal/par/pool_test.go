package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/race"
)

// eight is an 8-branch fan-out whose branches do nothing.
func eight() []func(context.Context) error {
	fns := make([]func(context.Context) error, 8)
	for i := range fns {
		fns[i] = func(context.Context) error { return nil }
	}
	return fns
}

// TestPoolSteadyStateStartsNoWorker: a worker is hirable before the Do
// it served returns, so a repeated fan-out of the same width runs on the
// workers the first one started.
func TestPoolSteadyStateStartsNoWorker(t *testing.T) {
	ctx, fns := context.Background(), eight()
	// A round is far shorter than the idle period; only a machine stall
	// long enough to drain the pool mid-round can start a worker, and
	// not in every round.
	for round := 0; round < 5; round++ {
		if err := Do(ctx, fns...); err != nil {
			t.Fatal(err)
		}
		before := started.Load()
		for i := 0; i < 200; i++ {
			if err := Do(ctx, fns...); err != nil {
				t.Fatal(err)
			}
		}
		if started.Load() == before {
			return
		}
	}
	t.Fatal("a warmed-up 8-branch Do keeps starting workers")
}

// TestAllocsDo pins what a warmed-up fan-out allocates: for Do the
// index-to-function adapter, nothing else and nothing per branch.
func TestAllocsDo(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	ctx := context.Background()
	fns := eight()
	each := func(context.Context, int) error { return nil }
	for _, c := range []struct {
		name  string
		limit float64
		f     func()
	}{
		{"Do", 1, func() { _ = Do(ctx, fns...) }},
		{"ForEach", 0, func() { _ = ForEach(ctx, len(fns), each) }},
	} {
		got := testing.AllocsPerRun(200, c.f)
		t.Logf("%s: %.1f allocs/op (limit %.0f)", c.name, got, c.limit)
		if got > c.limit {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", c.name, got, c.limit)
		}
	}
}

// TestPoolDrains: no worker outlives idleness.
func TestPoolDrains(t *testing.T) {
	drained := func() bool { return parked.Load() == 0 }
	waitFor(t, "workers of earlier tests to leave", drained)
	base := runtime.NumGoroutine()
	if err := Do(context.Background(), eight()...); err != nil {
		t.Fatal(err)
	}
	if parked.Load() == 0 {
		t.Fatal("an 8-branch Do left no worker parked")
	}
	waitFor(t, "the workers to leave", func() bool { return drained() && runtime.NumGoroutine() <= base })
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * idleExit); !ok(); time.Sleep(idleExit / 20) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %d parked, %d goroutines", what, parked.Load(), runtime.NumGoroutine())
		}
	}
}

// TestNestedDoRealOneProc: a branch nobody is parked for starts its own
// worker, so nesting cannot wait for one, even with a single P.
func TestNestedDoRealOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wide := 64
	if race.Enabled {
		wide = 32 // the detector's per-goroutine state makes 64 cost 400 MiB
	}
	var leaves atomic.Int64
	err := ForEach(context.Background(), wide, func(ctx context.Context, _ int) error {
		return ForEach(ctx, wide, func(ctx context.Context, _ int) error {
			return ForEach(ctx, wide, func(context.Context, int) error {
				leaves.Add(1)
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := leaves.Load(); n != int64(wide*wide*wide) {
		t.Fatalf("%d leaves ran, want %d", n, wide*wide*wide)
	}
}

// TestDoRealBranchesMeetAtBarrier: every branch of a fan-out wider than
// any before it runs at once — none queues behind another.
func TestDoRealBranchesMeetAtBarrier(t *testing.T) {
	const wide = 100
	var arrived sync.WaitGroup
	arrived.Add(wide)
	err := ForEach(context.Background(), wide, func(context.Context, int) error {
		arrived.Done()
		arrived.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolReleasesBranchBuffer: once Do has returned, what a branch
// closed over, what it returned and the context it ran under are
// garbage, though the workers that ran it are still parked.
func TestPoolReleasesBranchBuffer(t *testing.T) {
	collected := make(chan struct{}, 3)
	func() {
		type key struct{}
		buf, val, failure := new([1 << 16]byte), new([1 << 16]byte), &bigErr{}
		for _, p := range []any{buf, val, failure} {
			runtime.SetFinalizer(p, func(any) { collected <- struct{}{} })
		}
		ctx := context.WithValue(context.Background(), key{}, val)
		err := ForEach(ctx, 8, func(_ context.Context, i int) error {
			buf[i]++
			return failure
		})
		if err != failure {
			t.Fatalf("got %v, want the branches' error", err)
		}
	}()
	for n, deadline := 0, time.Now().Add(10*time.Second); n < 3; {
		runtime.GC()
		select {
		case <-collected:
			n++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("%d of 3 objects collected: a parked worker or the pool pins a finished branch", n)
			}
		}
	}
}

type bigErr struct{ pad [1 << 16]byte }

func (*bigErr) Error() string { return "big" }

// TestDoRealConcurrent: many fan-outs share the workers at once; each
// sees its own branches' results and its own root cause.
func TestDoRealConcurrent(t *testing.T) {
	var callers sync.WaitGroup
	for c := 0; c < 8; c++ {
		callers.Add(1)
		go func(c int) {
			defer callers.Done()
			boom := errors.New("boom")
			for r := 0; r < 200; r++ {
				var ran [5]int
				err := ForEach(context.Background(), len(ran), func(ctx context.Context, i int) error {
					ran[i] = c + r
					if i == r%len(ran) && r%2 == 1 {
						return boom
					}
					return ctx.Err()
				})
				var want error
				if r%2 == 1 {
					want = boom
				}
				if err != want {
					t.Errorf("caller %d round %d: got %v, want %v", c, r, err, want)
					return
				}
				for i, v := range ran {
					if v != c+r {
						t.Errorf("caller %d round %d: branch %d did not run", c, r, i)
						return
					}
				}
			}
		}(c)
	}
	callers.Wait()
}
