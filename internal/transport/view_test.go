package transport

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/race"
)

// TestServerViewRetainedPayloadRaces: a handler that keeps its payload
// past return breaks the Handler contract, and the race detector sees
// it — a goroutine reads the kept payload, a view of the connection's
// read buffer, while the server refills that buffer with the next
// frames. The offending server runs in a child process, whose race
// report is the expected outcome.
func TestServerViewRetainedPayloadRaces(t *testing.T) {
	if !race.Enabled {
		t.Skip("needs the race detector")
	}
	if os.Getenv("TRANSPORT_RETAIN_CHILD") == "1" {
		retainPayload(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestServerViewRetainedPayloadRaces$", "-test.count=1")
	cmd.Env = append(os.Environ(), "TRANSPORT_RETAIN_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("WARNING: DATA RACE")) || !bytes.Contains(out, []byte("retainPayload")) {
		t.Fatalf("a handler kept its payload, but the child (%v) reported no race on it:\n%s", err, out)
	}
}

// retainPayload is the child's side: the handler hands its first
// payload to a goroutine that reads it for 200 ms, during which 160 KiB
// of further requests pass through the server.
func retainPayload(t *testing.T) {
	kept := make(chan []byte, 1)
	_, conn := rawPair(t, func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		select {
		case kept <- payload:
		default:
		}
		return nil, nil
	}, ServerOptions{})
	sum := make(chan int)
	go func() {
		p, n := <-kept, 0
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
			for _, c := range p {
				n += int(c)
			}
			time.Sleep(time.Millisecond)
		}
		sum <- n
	}()
	if err := writeFrame(conn, 1, frameRequest, 1, nil, bytes.Repeat([]byte{'k'}, 1024)); err != nil {
		t.Fatal(err)
	}
	readReply(t, conn, 1)
	for id := uint64(2); id < 22; id++ {
		if err := writeFrame(conn, id, frameRequest, 1, nil, bytes.Repeat([]byte{byte(id)}, 8<<10)); err != nil {
			t.Fatal(err)
		}
		readReply(t, conn, id)
	}
	<-sum
}

// TestServerViewEchoBurst: an echo handler's response is its payload, a
// view of the read buffer. Pipelined same-op requests totalling more
// than that buffer are answered with every reply byte-correct, so no
// held reply was overwritten by a refill; and with RecycleResponses on
// or off, the server takes nothing from the pool and returns nothing to
// it.
func TestServerViewEchoBurst(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		s, conn := rawPair(t, func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
			return payload, nil
		}, ServerOptions{RecycleResponses: recycle})
		const frames, size = 40, 6 << 10
		body := func(i int) []byte {
			b := make([]byte, size)
			for j := range b {
				b[j] = byte(i*7 + j)
			}
			return b
		}
		var burst bytes.Buffer
		for i := 0; i < frames; i++ {
			if err := writeFrame(&burst, uint64(i+1), frameRequest, 1, nil, body(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := bufpool.Snapshot()
		werr := make(chan error, 1)
		go func() {
			_, err := conn.Write(burst.Bytes())
			werr <- err
		}()
		for i := 0; i < frames; i++ {
			if p := readReply(t, conn, uint64(i+1)); !bytes.Equal(p, body(i)) {
				t.Fatalf("recycle %v: reply %d differs from its request", recycle, i+1)
			}
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		s.Close()
		after := bufpool.Snapshot()
		if after.Gets != before.Gets || after.Puts != before.Puts {
			t.Errorf("recycle %v: the server took %d buffers from the pool and returned %d, want 0 and 0",
				recycle, after.Gets-before.Gets, after.Puts-before.Puts)
		}
	}
}

// TestServerViewPoolBalance: over calls whose payloads fit the read
// buffer (views) or not (pooled), whose responses are pooled buffers or
// the payload itself, every buffer the server took from the pool goes
// back: Outstanding returns to where it was.
func TestServerViewPoolBalance(t *testing.T) {
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		if op == 2 {
			return payload, nil
		}
		return bufpool.Get(64), nil
	}, ServerOptions{RecycleResponses: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(bg, s.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := bufpool.Snapshot().Outstanding()
	for _, size := range []int{0, 1 << 10, serverBufSize - 1, serverBufSize, serverBufSize + 1, 300 << 10, 1 << 20} {
		req := bytes.Repeat([]byte{0xA5}, size)
		for _, op := range []uint8{1, 2} {
			resp, err := callOne(c, bg, op, req)
			if err != nil {
				t.Fatalf("op %d, %d bytes: %v", op, size, err)
			}
			if want := map[uint8]int{1: 64, 2: size}[op]; len(resp) != want {
				t.Fatalf("op %d, %d bytes: %d-byte response, want %d", op, size, len(resp), want)
			}
		}
		if err := c.Notify(bg, 1, [][]byte{req}, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	s.Close() // waits for the connection's last release
	if d := bufpool.Snapshot().Outstanding() - before; d != 0 {
		t.Fatalf("%d pooled buffers outstanding after the run, want 0", d)
	}
}
