package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestDoRealRunsAll(t *testing.T) {
	var n int64
	err := Do(context.Background(),
		func(context.Context) error { atomic.AddInt64(&n, 1); return nil },
		func(context.Context) error { atomic.AddInt64(&n, 1); return nil },
		func(context.Context) error { atomic.AddInt64(&n, 1); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ran %d fns, want 3", n)
	}
}

func TestDoRealFirstErrorInOrder(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	err := Do(context.Background(),
		func(context.Context) error { return nil },
		func(context.Context) error { return e1 },
		func(context.Context) error { return e2 },
	)
	if err != e1 {
		t.Fatalf("got %v, want %v", err, e1)
	}
}

// TestDoRealFailureDoesNotCancelSiblings: a branch's failure leaves the
// context its siblings run under live, during the fan-out and after it,
// so a redundant write's healthy copies land whatever a failed member
// does.
func TestDoRealFailureDoesNotCancelSiblings(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	var sibling context.Context
	err := Do(context.Background(),
		func(ctx context.Context) error {
			<-failed
			sibling = ctx
			return ctx.Err()
		},
		func(context.Context) error { close(failed); return boom },
	)
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if err := sibling.Err(); err != nil {
		t.Fatalf("a sibling's context ended (%v) because another branch failed", err)
	}
}

// TestDoRealParentCancellationStillReported: when the caller's own
// context ends, the cancellation error is the legitimate result.
func TestDoRealParentCancellationStillReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Do(ctx,
		func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() },
		func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() },
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestDoNilAndEmpty(t *testing.T) {
	if err := Do(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := Do(context.Background(), nil, func(context.Context) error { ran = true; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single live fn did not run")
	}
}

func TestDoSimOverlapsInVirtualTime(t *testing.T) {
	s := vclock.New()
	var elapsed time.Duration
	s.Spawn("parent", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		err := Do(ctx,
			func(ctx context.Context) error {
				c, _ := vclock.From(ctx)
				c.Sleep(30 * time.Millisecond)
				return nil
			},
			func(ctx context.Context) error {
				c, _ := vclock.From(ctx)
				c.Sleep(50 * time.Millisecond)
				return nil
			},
		)
		if err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Parallel children take max(30,50)=50ms, not 80ms.
	if elapsed != 50*time.Millisecond {
		t.Fatalf("fork-join took %v, want 50ms", elapsed)
	}
}

func TestDoSimPropagatesError(t *testing.T) {
	s := vclock.New()
	boom := errors.New("boom")
	s.Spawn("parent", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		err := Do(ctx,
			func(context.Context) error { return nil },
			func(context.Context) error { return boom },
		)
		if err != boom {
			t.Errorf("got %v, want boom", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForEach(t *testing.T) {
	s := vclock.New()
	seen := make([]bool, 8)
	s.Spawn("parent", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		err := ForEach(ctx, len(seen), func(ctx context.Context, i int) error {
			c, _ := vclock.From(ctx)
			c.Sleep(time.Duration(i) * time.Millisecond)
			seen[i] = true
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestForEachZero(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDoSimChildrenInheritContextValues: values attached to the parent
// context (other than the proc itself) must be visible in children.
func TestDoSimChildrenInheritContextValues(t *testing.T) {
	type key struct{}
	s := vclock.New()
	s.Spawn("parent", func(p *vclock.Proc) {
		ctx := context.WithValue(vclock.With(context.Background(), p), key{}, "payload")
		err := Do(ctx,
			func(ctx context.Context) error {
				if v, _ := ctx.Value(key{}).(string); v != "payload" {
					t.Errorf("child 0 lost context value: %q", v)
				}
				// And the child must carry its own proc, not the parent's.
				child, ok := vclock.From(ctx)
				if !ok || child == p {
					t.Error("child 0 has no distinct proc")
				}
				return nil
			},
			func(ctx context.Context) error {
				if v, _ := ctx.Value(key{}).(string); v != "payload" {
					t.Errorf("child 1 lost context value: %q", v)
				}
				return nil
			},
		)
		if err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNestedDoSim: fork-join inside fork-join composes (engines nest
// par calls: array write -> per-disk ops -> RAID-5 per-stripe ops).
func TestNestedDoSim(t *testing.T) {
	s := vclock.New()
	var leafRuns int
	s.Spawn("root", func(p *vclock.Proc) {
		ctx := vclock.With(context.Background(), p)
		err := ForEach(ctx, 3, func(ctx context.Context, i int) error {
			return ForEach(ctx, 4, func(ctx context.Context, j int) error {
				c, _ := vclock.From(ctx)
				c.Sleep(time.Duration(i+j) * time.Millisecond)
				leafRuns++
				return nil
			})
		})
		if err != nil {
			t.Error(err)
		}
		// Max path: i=2 branch with j=3 leaf => 5ms.
		if p.Now() != 5*time.Millisecond {
			t.Errorf("nested fork-join elapsed %v, want 5ms", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if leafRuns != 12 {
		t.Fatalf("%d leaves ran, want 12", leafRuns)
	}
}
