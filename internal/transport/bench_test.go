package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
)

var bgBench = context.Background()

func benchPair(b *testing.B) *Client {
	b.Helper()
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return payload, nil
	}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	c, err := Dial(context.Background(), s.Addr(), DialOptions{})
	if err != nil {
		s.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c
}

func BenchmarkCallRoundTrip(b *testing.B) {
	c := benchPair(b)
	payload := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := callOne(c, bgBench, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
}

func BenchmarkCallConcurrent(b *testing.B) {
	c := benchPair(b)
	payload := make([]byte, 4096)
	b.ResetTimer()
	var wg sync.WaitGroup
	const lanes = 8
	per := b.N / lanes
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := callOne(c, bgBench, 1, payload); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.SetBytes(int64(len(payload)))
}

func BenchmarkNotify(b *testing.B) {
	c := benchPair(b)
	payload := make([]byte, 32<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Notify(context.Background(), 2, [][]byte{payload}, 0); err != nil {
			b.Fatal(err)
		}
	}
	// Drain: one Call orders after all notifications.
	if _, err := callOne(c, bgBench, 1, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
}

// BenchmarkServeWrite32K is the server's request-payload path alone:
// pipelined 32 KiB requests on one raw connection, each copied once by
// its handler (as a disk write copies into the store) and answered with
// an empty reply.
func BenchmarkServeWrite32K(b *testing.B) {
	sink := make([]byte, 32<<10)
	s, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		copy(sink, payload)
		return nil, nil
	}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var frame bytes.Buffer
	if err := writeFrame(&frame, 1, frameRequest, 1, nil, make([]byte, len(sink))); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(sink)))
	b.ResetTimer()
	werr := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := conn.Write(frame.Bytes()); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	if _, err := io.CopyN(io.Discard, conn, int64(b.N)*replyHdrLen); err != nil {
		b.Fatal(err)
	}
	if err := <-werr; err != nil {
		b.Fatal(err)
	}
}
