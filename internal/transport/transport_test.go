package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

var bg = context.Background()

// callOne is a Call of a one-segment request with no deadline of its own.
func callOne(c *Client, ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	return c.Call(ctx, op, [][]byte{payload}, nil, time.Time{})
}

func echoServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		switch op {
		case 1: // echo
			return payload, nil
		case 2: // fail
			return nil, errors.New("boom")
		case 3: // double
			out := make([]byte, 2*len(payload))
			copy(out, payload)
			copy(out[len(payload):], payload)
			return out, nil
		case 4: // coded failure
			return nil, WithCode(CodeDiskFailed, errors.New("disk d0: failed"))
		}
		return nil, fmt.Errorf("unknown op %d", op)
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c
}

func TestCallRoundTrip(t *testing.T) {
	_, c := echoServer(t)
	resp, err := callOne(c, bg, 1, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello" {
		t.Fatalf("got %q", resp)
	}
}

func TestCallEmptyPayload(t *testing.T) {
	_, c := echoServer(t)
	resp, err := callOne(c, bg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Fatalf("got %d bytes, want 0", len(resp))
	}
}

func TestRemoteError(t *testing.T) {
	_, c := echoServer(t)
	_, err := callOne(c, bg, 2, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Msg != "boom" || re.Op != 2 {
		t.Fatalf("got %+v", re)
	}
	if re.Code != CodeGeneric {
		t.Fatalf("uncoded error arrived with code %d", re.Code)
	}
}

// TestRemoteErrorCodeRoundTrip asserts that a handler error wrapped
// with WithCode surfaces the code byte on the client side, and that the
// message text survives alongside it.
func TestRemoteErrorCodeRoundTrip(t *testing.T) {
	_, c := echoServer(t)
	_, err := callOne(c, bg, 4, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Code != CodeDiskFailed {
		t.Fatalf("code = %d, want CodeDiskFailed", re.Code)
	}
	if re.Msg != "disk d0: failed" || re.Op != 4 {
		t.Fatalf("got %+v", re)
	}
}

func TestUnknownOp(t *testing.T) {
	_, c := echoServer(t)
	if _, err := callOne(c, bg, 99, nil); err == nil {
		t.Fatal("unknown op succeeded")
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	_, c := echoServer(t)
	var wg sync.WaitGroup
	errs := make([]error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(i)}, 100+i)
			resp, err := callOne(c, bg, 1, msg)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs[i] = fmt.Errorf("call %d: payload mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLargePayload(t *testing.T) {
	_, c := echoServer(t)
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	resp, err := callOne(c, bg, 3, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2*len(big) {
		t.Fatalf("got %d bytes, want %d", len(resp), 2*len(big))
	}
	if !bytes.Equal(resp[:len(big)], big) || !bytes.Equal(resp[len(big):], big) {
		t.Fatal("payload corrupted")
	}
}

func TestNotifyIsProcessedInOrder(t *testing.T) {
	var mu sync.Mutex
	var log []byte
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		mu.Lock()
		log = append(log, op)
		mu.Unlock()
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Notify(context.Background(), 10, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A Call on the same connection flushes behind the notifications.
	if _, err := callOne(c, bg, 20, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []byte{10, 10, 10, 10, 10, 20}
	if !bytes.Equal(log, want) {
		t.Fatalf("server saw ops %v, want %v", log, want)
	}
}

func TestCallAfterClose(t *testing.T) {
	_, c := echoServer(t)
	c.Close()
	if _, err := callOne(c, bg, 1, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, c := echoServer(t)
	s.Close()
	// Either the write or the read fails, but the call must return.
	if _, err := callOne(c, bg, 1, []byte("x")); err == nil {
		t.Fatal("call against closed server succeeded")
	}
}

func TestMultipleClients(t *testing.T) {
	s, _ := echoServer(t)
	for i := 0; i < 4; i++ {
		c, err := Dial(context.Background(), s.Addr(), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := callOne(c, bg, 1, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) != 1 || resp[0] != byte(i) {
			t.Fatalf("client %d: got %v", i, resp)
		}
		c.Close()
	}
}

// TestServerSurvivesMalformedFrames: a client sending garbage must not
// take the server down for other clients.
func TestServerSurvivesMalformedFrames(t *testing.T) {
	s, good := echoServer(t)

	// Raw connection sending a hostile length prefix, then junk.
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Length below the header minimum.
	if _, err := raw.Write([]byte{0, 0, 0, 1, 0xde}); err != nil {
		t.Fatal(err)
	}
	// The good client still works.
	resp, err := callOne(good, bg, 1, []byte("still alive"))
	if err != nil || string(resp) != "still alive" {
		t.Fatalf("good client broken: %q %v", resp, err)
	}

	// Oversized frame length.
	raw2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := raw2.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp, err = callOne(good, bg, 1, []byte("again"))
	if err != nil || string(resp) != "again" {
		t.Fatalf("good client broken after oversize frame: %q %v", resp, err)
	}
}

// TestClientRejectsOversizedResponse: a hostile server cannot make the
// client allocate unbounded memory.
func TestClientRejectsOversizedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read the request, answer with an oversized length prefix.
		io.ReadFull(conn, make([]byte, 4))
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		conn.Write(hdr[:])
	}()
	c, err := Dial(context.Background(), ln.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := callOne(c, bg, 1, []byte("x")); err == nil {
		t.Fatal("oversized response accepted")
	}
}

// TestOversizedPayloadRejectedAtSend: a payload exceeding MaxPayload
// must be refused locally instead of being emitted and killing the
// connection with an opaque peer-side "bad frame length" error.
func TestOversizedPayloadRejectedAtSend(t *testing.T) {
	_, c := echoServer(t)
	big := make([]byte, MaxPayload+1)
	if _, err := callOne(c, bg, 1, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Call: got %v, want ErrFrameTooLarge", err)
	}
	if err := c.Notify(context.Background(), 1, [][]byte{big}, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Notify: got %v, want ErrFrameTooLarge", err)
	}
	// The connection must still be usable.
	resp, err := callOne(c, bg, 1, []byte("ok"))
	if err != nil || string(resp) != "ok" {
		t.Fatalf("connection broken after rejected send: %q %v", resp, err)
	}
}

// TestOversizedHandlerResultBecomesError: a handler result that cannot
// fit in a frame travels back as a response-error, not a dead socket.
func TestOversizedHandlerResultBecomesError(t *testing.T) {
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return make([]byte, MaxPayload+1), nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = callOne(c, bg, 1, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	// And the connection survived.
	if _, err := callOne(c, bg, 1, nil); !errors.As(err, &re) {
		t.Fatalf("second call: got %v, want RemoteError", err)
	}
}

// TestCloseFailsOutstandingCalls: Close must fail in-flight calls with
// ErrClosed immediately, not leave them waiting on the read loop.
func TestCloseFailsOutstandingCalls(t *testing.T) {
	stall, arrived := make(chan struct{}), make(chan struct{})
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		close(arrived)
		<-stall // never answer until the test ends
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(stall); s.Close() }()
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := callOne(c, bg, 1, nil)
		errc <- err
	}()
	// The frame reached the server, so the call is registered: close
	// under it.
	<-arrived
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("outstanding call not failed by Close")
	}
}

// TestCallDeadlineAgainstHungServer: a server that accepts but never
// responds must not hang a call with a deadline.
func TestCallDeadlineAgainstHungServer(t *testing.T) {
	stall := make(chan struct{})
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		<-stall
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(stall); s.Close() }()
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = callOne(c, ctx, 1, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("deadline took %v to fire", took)
	}
}

// TestCallCancellation: cancelling the context abandons the call.
func TestCallCancellation(t *testing.T) {
	stall, arrived := make(chan struct{}), make(chan struct{})
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		close(arrived)
		<-stall
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(stall); s.Close() }()
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() {
		_, err := callOne(c, ctx, 1, nil)
		errc <- err
	}()
	<-arrived // the call is sent and waits for its response
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abandon the call")
	}
}

// TestReconnectAfterServerRestart: a client whose server died and came
// back on the same address must reach it again without re-dialing by
// hand.
func TestReconnectAfterServerRestart(t *testing.T) {
	handler := func(_ context.Context, op uint8, payload []byte) ([]byte, error) { return payload, nil }
	s, err := Serve("127.0.0.1:0", handler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c, err := Dial(context.Background(), addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := callOne(c, bg, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// While the server is down every call fails, but nothing hangs.
	if _, err := callOne(c, bg, 1, []byte("down")); err == nil {
		t.Fatal("call against dead server succeeded")
	}

	s2, err := Serve(addr, handler, ServerOptions{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()

	var resp []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = callOne(c, bg, 1, []byte("two"))
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil || string(resp) != "two" {
		t.Fatalf("call after restart: %q %v", resp, err)
	}
}

// TestCallDeadlineBehindStalledPush: a push to a peer that stopped
// reading holds the session's write lock mid-frame. A call queued behind
// it must fail at its own deadline (or cancellation), not at the push's
// longer one, and the push's timeout must end its write.
func TestCallDeadlineBehindStalledPush(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	started, done := make(chan struct{}), make(chan struct{})
	defer close(done)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.(*net.TCPConn).SetReadBuffer(16 << 10)
		// Read the push's frame header, then stop reading.
		if _, err := io.ReadFull(conn, make([]byte, 4+headerLen)); err != nil {
			return
		}
		close(started)
		<-done
	}()
	small := func(ctx context.Context, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err == nil {
			conn.(*net.TCPConn).SetWriteBuffer(16 << 10)
		}
		return conn, err
	}
	c, err := Dial(bg, ln.Addr().String(), DialOptions{Dialer: small})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pushErr := make(chan error, 1)
	go func() {
		push := [][]byte{make([]byte, 1<<20)}
		pushErr <- c.Notify(bg, 2, push, 2*time.Second)
	}()
	<-started // the push holds the write lock and cannot finish its frame

	cctx, cancel := context.WithCancel(bg)
	callErr, cancelErr := make(chan error, 1), make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Call(bg, 1, [][]byte{[]byte("x")}, nil, start.Add(100*time.Millisecond))
		callErr <- err
	}()
	go func() {
		_, err := c.Call(cctx, 1, [][]byte{[]byte("y")}, nil, time.Time{})
		cancelErr <- err
	}()
	select {
	case err := <-callErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call behind the stalled push: got %v, want DeadlineExceeded", err)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Fatalf("call with a 100ms deadline returned after %v behind a stalled push", took)
		}
	case <-time.After(time.Second):
		t.Fatal("call with a 100ms deadline still blocked after 1s behind a stalled push")
	}
	cancel()
	select {
	case err := <-cancelErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call behind the stalled push: got %v, want Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call still blocked after 1s behind a stalled push")
	}
	if err := <-pushErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled push: got %v, want DeadlineExceeded", err)
	}
}

// gatedConn blocks its second Read until release is closed, reporting
// on reading when that Read starts.
type gatedConn struct {
	net.Conn
	reads   int
	reading chan struct{}
	release chan struct{}
}

func (g *gatedConn) Read(b []byte) (int, error) {
	if g.reads++; g.reads == 2 {
		close(g.reading)
		<-g.release
	}
	return g.Conn.Read(b)
}

// TestCloseWaitsForClaimedDst: a Close while the read loop is scattering
// a bulk response into the caller's buffers must not let Call return
// until that read has ended — the buffers may be pooled and reused at
// once.
func TestCloseWaitsForClaimedDst(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	gc := &gatedConn{Conn: cli, reading: make(chan struct{}), release: make(chan struct{})}
	c, err := Dial(bg, "pipe", DialOptions{Dialer: func(context.Context, string) (net.Conn, error) { return gc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8192)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(bg, 1, nil, [][]byte{dst}, time.Time{})
		errc <- err
	}()
	id, _, _, _, _, err := readFrame(srv)
	if err != nil {
		t.Fatal(err)
	}
	// The response header and the first half of the payload.
	frame := make([]byte, 4+headerLen+len(dst)/2)
	binary.BigEndian.PutUint32(frame[0:4], uint32(headerLen+len(dst)))
	binary.BigEndian.PutUint64(frame[4:12], id)
	frame[12] = frameOK
	frame[13] = 1
	if _, err := srv.Write(frame); err != nil {
		t.Fatal(err)
	}
	<-gc.reading // the read loop has claimed dst and wants the rest
	c.Close()
	select {
	case err := <-errc:
		close(gc.release)
		t.Fatalf("Call returned (%v) while the read loop still held its destination", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gc.release)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// rawPair starts a server with handler h and dials it with a plain TCP
// connection, so a test can put several request frames on the wire in
// one write and read the replies frame by frame.
func rawPair(t *testing.T, h Handler, opts ServerOptions) (*Server, net.Conn) {
	t.Helper()
	s, err := Serve("127.0.0.1:0", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return s, conn
}

// pipeline writes one request frame per op, ids 1, 2, …, each carrying
// its index as a one-byte payload, in a single Write.
func pipeline(t *testing.T, conn net.Conn, ops ...uint8) {
	t.Helper()
	var buf bytes.Buffer
	for i, op := range ops {
		if err := writeFrame(&buf, uint64(i+1), frameRequest, op, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// readReply reads one reply frame and checks that it answers request id
// with frameOK.
func readReply(t *testing.T, conn net.Conn, id uint64) []byte {
	t.Helper()
	gid, typ, _, _, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reply %d: %v", id, err)
	}
	if gid != id || typ != frameOK {
		t.Fatalf("reply id %d type %d, want id %d type %d", gid, typ, id, frameOK)
	}
	return payload
}

// TestReplyBurstOneWrite: three same-op requests that arrive in one
// segment are answered in order, all three replies in one write.
func TestReplyBurstOneWrite(t *testing.T) {
	s, conn := rawPair(t, func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return payload, nil
	}, ServerOptions{})
	pipeline(t, conn, 1, 1, 1)
	for i := 0; i < 3; i++ {
		if p := readReply(t, conn, uint64(i+1)); !bytes.Equal(p, []byte{byte(i)}) {
			t.Fatalf("reply %d payload %v", i+1, p)
		}
	}
	if n := s.replyWrites.Load(); n != 1 {
		t.Fatalf("%d reply writes for a three-request burst, want 1", n)
	}
}

// TestReplyBurstEnds: a reply is never held behind a request of another
// opcode, nor behind a notification of its own — it arrives though the
// next frame's handler blocks until the test ends.
func TestReplyBurstEnds(t *testing.T) {
	for _, next := range []struct {
		name string
		id   uint64
		op   uint8
	}{{"other op", 2, 2}, {"note", 0, 1}} {
		t.Run(next.name, func(t *testing.T) {
			blocked, release := make(chan struct{}), make(chan struct{})
			defer close(release)
			_, conn := rawPair(t, func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
				if string(payload) == "block" {
					close(blocked)
					<-release
				}
				return nil, nil
			}, ServerOptions{})
			var buf bytes.Buffer
			writeFrame(&buf, 1, frameRequest, 1, nil, []byte("go"))
			writeFrame(&buf, next.id, frameRequest, next.op, nil, []byte("block"))
			if _, err := conn.Write(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			readReply(t, conn, 1)
			<-blocked // and the next handler holds on until the test ends
		})
	}
}

// TestReplyBurstSplitsPast64K: a same-op burst whose replies pass the
// connection buffer's 64 KiB goes out in more than one write, every
// reply intact and in order.
func TestReplyBurstSplitsPast64K(t *testing.T) {
	const size = 16 << 10
	s, conn := rawPair(t, func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return bytes.Repeat(payload, size), nil
	}, ServerOptions{})
	ops := bytes.Repeat([]byte{1}, 8)
	pipeline(t, conn, ops...)
	for i := range ops {
		if p := readReply(t, conn, uint64(i+1)); !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, size)) {
			t.Fatalf("reply %d: %d bytes, wrong content", i+1, len(p))
		}
	}
	if n := s.replyWrites.Load(); n < 2 {
		t.Fatalf("%d reply write for %d KiB of replies, want more than one", n, len(ops)*size>>10)
	}
}
