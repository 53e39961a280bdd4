package transport

import (
	"context"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/race"
)

// allocLimit runs f and fails if it averages more than limit heap
// allocations per run. The counter is process-wide, so the echo server's
// goroutines count too — these tests pin the whole request round trip.
func allocLimit(t *testing.T, limit float64, f func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	got := testing.AllocsPerRun(200, f)
	t.Logf("%.1f allocs/op (limit %.0f)", got, limit)
	if got > limit {
		t.Errorf("%.1f allocs/op, want <= %.0f", got, limit)
	}
}

// TestAllocsCallScatter pins the read path: a bulk response
// must land in the caller's buffer with a small constant number of
// bookkeeping allocations and no per-byte cost.
func TestAllocsCallScatter(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		buf := bufpool.Get(64 << 10)
		return buf, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	hdr := make([]byte, 16)
	dst := make([]byte, 64<<10)
	req := [][]byte{hdr}
	resp := [][]byte{dst}
	allocLimit(t, 6, func() {
		if _, err := c.Call(ctx, 1, req, resp, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsCallVecWrite pins the zero-copy write path: a gather request
// with a 64 KiB payload segment and an empty response.
func TestAllocsCallVecWrite(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	hdr := make([]byte, 16)
	data := make([]byte, 64<<10)
	req := [][]byte{hdr, data}
	allocLimit(t, 6, func() {
		if _, err := c.Call(ctx, 1, req, nil, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsNonErrorFastPath pins that a frameOK response never touches
// the error-decoding path: decodeRemoteError and friends must cost
// nothing when the call succeeds (the common case).
func TestAllocsNonErrorFastPath(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	req := [][]byte{make([]byte, 16)}
	allocLimit(t, 6, func() {
		if _, err := c.Call(ctx, 1, req, nil, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
}
