package faultnet

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/transport"
)

func echoServer(t *testing.T) *transport.Server {
	t.Helper()
	s, err := transport.Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return payload, nil
	}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func faultyClient(t *testing.T, n *Network, addr string) *transport.Client {
	t.Helper()
	c, err := transport.Dial(context.Background(), addr, transport.DialOptions{Dialer: n.Dialer()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// call is a one-segment Call with no deadline of its own.
func call(c *transport.Client, ctx context.Context, payload []byte) ([]byte, error) {
	return c.Call(ctx, 1, [][]byte{payload}, nil, time.Time{})
}

func TestCleanPassThrough(t *testing.T) {
	s := echoServer(t)
	n := New(1)
	c := faultyClient(t, n, s.Addr())
	resp, err := call(c, context.Background(), []byte("hello"))
	if err != nil || string(resp) != "hello" {
		t.Fatalf("got %q %v", resp, err)
	}
}

func TestLatencyInjection(t *testing.T) {
	s := echoServer(t)
	n := New(1)
	c := faultyClient(t, n, s.Addr())
	n.SetLatency(s.Addr(), 30*time.Millisecond, 0)
	start := time.Now()
	if _, err := call(c, context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The request goes out as one vectored write, so the frame pays the
	// latency at least once (reads pipelined behind the read loop may
	// overlap the write's charge).
	if took := time.Since(start); took < 25*time.Millisecond {
		t.Fatalf("call took %v, want >= 25ms of injected latency", took)
	}
	n.Heal(s.Addr())
	// One warm-up call absorbs the read loop's already-gated sleep.
	if _, err := call(c, context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := call(c, context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 25*time.Millisecond {
		t.Fatalf("call took %v after heal", took)
	}
}

// callUntilOK retries a call until it succeeds (modeling the retry
// layer above the transport) or the deadline passes.
func callUntilOK(t *testing.T, c *transport.Client, payload []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := call(c, context.Background(), payload)
		if err == nil {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("call never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestErrorInjectionBreaksAndReconnects(t *testing.T) {
	s := echoServer(t)
	n := New(7)
	c := faultyClient(t, n, s.Addr())
	n.SetErrorRate(s.Addr(), 1.0)
	if _, err := call(c, context.Background(), []byte("x")); err == nil {
		t.Fatal("call through 100% error rate succeeded")
	}
	n.Heal(s.Addr())
	// The client re-dials once it notices the broken session.
	if resp := callUntilOK(t, c, []byte("back")); string(resp) != "back" {
		t.Fatalf("after heal: %q", resp)
	}
}

func TestStallBlocksUntilCleared(t *testing.T) {
	s := echoServer(t)
	n := New(1)
	c := faultyClient(t, n, s.Addr())
	n.Stall(s.Addr())
	// With a deadline, a stalled call returns DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := call(c, ctx, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	// Without a deadline, cancelling the context abandons the write.
	cctx, ccancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, ccancel)
	if _, err := call(c, cctx, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want Canceled", err)
	}
	// Without a stall, traffic flows again (new conn, since the stalled
	// one was abandoned mid-write).
	n.Unstall(s.Addr())
	if resp := callUntilOK(t, c, []byte("y")); string(resp) != "y" {
		t.Fatalf("after unstall: %q", resp)
	}

	// A raw write to a stalled peer gives up at its write deadline, as a
	// socket's would, and fails with net.ErrClosed once the conn closes.
	conn, err := n.Dialer()(context.Background(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	n.Stall(s.Addr())
	start := time.Now()
	conn.SetWriteDeadline(start.Add(50 * time.Millisecond))
	if _, err := conn.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write: got %v, want os.ErrDeadlineExceeded", err)
	}
	if took := time.Since(start); took < 40*time.Millisecond || took > time.Second {
		t.Fatalf("stalled write gave up after %v, want its 50ms deadline", took)
	}
	conn.SetWriteDeadline(time.Time{})
	time.AfterFunc(20*time.Millisecond, func() { conn.Close() })
	if _, err := conn.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("stalled write on a closed conn: got %v, want net.ErrClosed", err)
	}
}

func TestPartitionRefusesDials(t *testing.T) {
	s := echoServer(t)
	n := New(1)
	n.Partition(s.Addr())
	if _, err := n.Dialer()(context.Background(), s.Addr()); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("got %v, want ErrPartitioned", err)
	}
	n.Heal(s.Addr())
	conn, err := n.Dialer()(context.Background(), s.Addr())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	conn.Close()
}

func TestHealAllClearsEveryPeer(t *testing.T) {
	s1, s2 := echoServer(t), echoServer(t)
	n := New(1)
	n.Partition(s1.Addr())
	n.Stall(s2.Addr())
	n.HealAll()
	for _, addr := range []string{s1.Addr(), s2.Addr()} {
		c := faultyClient(t, n, addr)
		if _, err := call(c, context.Background(), []byte("ok")); err != nil {
			t.Fatalf("%s after HealAll: %v", addr, err)
		}
	}
}
