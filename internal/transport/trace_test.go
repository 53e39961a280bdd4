package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/trace"
)

// oldFrame hand-rolls a pre-extension frame, simulating a peer built
// before the flags byte existed.
func oldFrame(id uint64, typ, op uint8, payload []byte) []byte {
	b := make([]byte, 4+headerLen+len(payload))
	binary.BigEndian.PutUint32(b[0:4], uint32(headerLen+len(payload)))
	binary.BigEndian.PutUint64(b[4:12], id)
	b[12] = typ
	b[13] = op
	copy(b[14:], payload)
	return b
}

// readFrame parses one whole frame, accepting both the original format
// and the flags-byte extension. The returned typ has the extension bit
// stripped; ext is nil unless the frame carried a trace context.
func readFrame(r io.Reader) (id uint64, typ, op uint8, ext *TraceExt, payload []byte, err error) {
	var scratch headerScratch
	fh, n, err := readFrameHeader(r, &scratch)
	if err != nil {
		return
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return
	}
	if fh.hasExt {
		ext = &fh.ext
	}
	return fh.id, fh.typ, fh.op, ext, payload, nil
}

func TestTraceFrameRoundTrip(t *testing.T) {
	ext := &TraceExt{Trace: 0xdeadbeef, Span: 0x1234}
	payload := []byte("hello")
	var buf bytes.Buffer
	if err := writeFrame(&buf, 7, frameRequest, 42, ext, payload); err != nil {
		t.Fatal(err)
	}
	id, typ, op, got, pl, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || typ != frameRequest || op != 42 {
		t.Fatalf("id=%d typ=%d op=%d", id, typ, op)
	}
	if got == nil || *got != *ext {
		t.Fatalf("ext = %+v, want %+v", got, ext)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatalf("payload = %q", pl)
	}
}

// TestTraceUntracedFrameBytesIdentical pins the compat contract at the
// byte level: a frame written without an extension is identical to the
// original format, bit for bit.
func TestTraceUntracedFrameBytesIdentical(t *testing.T) {
	payload := []byte{1, 2, 3}
	var buf bytes.Buffer
	if err := writeFrame(&buf, 9, frameOK, 5, nil, payload); err != nil {
		t.Fatal(err)
	}
	if want := oldFrame(9, frameOK, 5, payload); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("untraced frame bytes differ from old format:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// TestTraceOldClientNewServer drives a new server with raw old-format
// frames over a plain TCP connection — the old-peer → new-server leg of
// the compatibility matrix. The response must itself be old-format.
func TestTraceOldClientNewServer(t *testing.T) {
	tr := trace.New(trace.Config{})
	srv, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return append([]byte("echo:"), payload...), nil
	}, ServerOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(oldFrame(3, frameRequest, 7, []byte("hi"))); err != nil {
		t.Fatal(err)
	}
	// Parse the response strictly as the old format.
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if id := binary.BigEndian.Uint64(resp[0:8]); id != 3 {
		t.Fatalf("response id = %d", id)
	}
	if resp[8]&typExt != 0 {
		t.Fatalf("response to an old client carries the extension bit: typ=%#02x", resp[8])
	}
	if resp[8] != frameOK || resp[9] != 7 {
		t.Fatalf("typ=%d op=%d", resp[8], resp[9])
	}
	if got := string(resp[headerLen:]); got != "echo:hi" {
		t.Fatalf("payload = %q", got)
	}
	// A flag-less frame carries no trace, so the server records nothing.
	if n := tr.Recorded(); n != 0 {
		t.Fatalf("server recorded %d spans for an untraced old-format request", n)
	}
}

// TestTraceNewClientOldServer runs a new client against a strict
// old-format parser: as long as the context is untraced, every frame
// the client emits must parse as the original format.
func TestTraceNewClientOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	badTyp := make(chan uint8, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			var lenBuf [4]byte
			if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
				return
			}
			buf := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			// Old parser: the type byte is exactly 0, 1 or 2.
			if buf[8] > frameError {
				badTyp <- buf[8]
				return
			}
			id := binary.BigEndian.Uint64(buf[0:8])
			if id == 0 {
				continue // notification
			}
			if _, err := conn.Write(oldFrame(id, frameOK, buf[9], buf[headerLen:])); err != nil {
				return
			}
		}
	}()

	c, err := Dial(context.Background(), ln.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background() // untraced
	if err := c.Notify(ctx, 2, [][]byte{[]byte("bg")}, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := callOne(c, ctx, 1, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("echo = %q", resp)
	}
	select {
	case typ := <-badTyp:
		t.Fatalf("untraced client sent a frame the old parser rejects: typ=%#02x", typ)
	default:
	}
}

// TestTracePropagation pins the cross-process trace contract: a traced
// call stamps the frame, and the server's tracer records its handler
// work under the caller's trace and span IDs.
func TestTracePropagation(t *testing.T) {
	serverTr := trace.New(trace.Config{})
	srv, err := Serve("127.0.0.1:0", func(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
		h := trace.StartLeaf(ctx, "handler.work", "d0")
		h.End(nil)
		return payload, nil
	}, ServerOptions{Tracer: serverTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(context.Background(), srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	clientTr := trace.New(trace.Config{})
	ctx, root := clientTr.StartRoot(context.Background(), "raidx.read", "raidx")
	if _, err := callOne(c, ctx, 4, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	sc, ok := trace.FromContext(ctx)
	if !ok {
		t.Fatal("root context lost its trace")
	}
	deadline := time.Now().Add(2 * time.Second)
	for serverTr.Recorded() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var serve, work trace.Span
	for _, sp := range serverTr.Spans() {
		switch sp.Name {
		case "transport.serve":
			serve = sp
		case "handler.work":
			work = sp
		}
	}
	if serve.Name == "" || work.Name == "" {
		t.Fatalf("server spans missing: %+v", serverTr.Spans())
	}
	if serve.Trace != sc.Trace {
		t.Fatalf("server span trace = %x, caller trace = %x", serve.Trace, sc.Trace)
	}
	if !serve.Top {
		t.Error("transport.serve not marked as the server-side subtree top")
	}
	if serve.Val != 4 {
		t.Errorf("serve Val = %d, want payload length 4", serve.Val)
	}
	if work.Parent != serve.ID {
		t.Error("handler span not parented under transport.serve")
	}

	// Client side recorded the matching transport.call span.
	var call trace.Span
	for _, sp := range clientTr.Spans() {
		if sp.Name == "transport.call" {
			call = sp
		}
	}
	if call.Name == "" || call.Trace != sc.Trace {
		t.Fatalf("client transport.call span missing or mis-traced: %+v", call)
	}
	if serve.Parent != call.ID {
		t.Fatalf("server subtree parent = %x, want the client's call span %x", serve.Parent, call.ID)
	}
}

// TestTraceServerWithoutTracer proves a traced frame against a
// tracer-less server is harmless: the extension is parsed and dropped.
func TestTraceServerWithoutTracer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(_ context.Context, op uint8, payload []byte) ([]byte, error) {
		return payload, nil
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
	tr := trace.New(trace.Config{})
	ctx, root := tr.StartRoot(context.Background(), "op", "")
	resp, err := callOne(c, ctx, 1, []byte("x"))
	root.End(err)
	if err != nil || string(resp) != "x" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
}

// FuzzReadFrame hammers the frame parser, seeded with truncated and
// malformed trace extensions. Whatever parses must survive a re-encode
// → re-parse round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	var okFrame bytes.Buffer
	writeFrame(&okFrame, 1, frameRequest, 2, nil, []byte("payload"))
	f.Add(okFrame.Bytes())
	var extFrame bytes.Buffer
	writeFrame(&extFrame, 2, frameRequest, 3, &TraceExt{Trace: 1, Span: 2}, []byte("p"))
	f.Add(extFrame.Bytes())
	// Extension bit set, but no flags byte at all.
	f.Add(oldFrame(3, frameRequest|typExt, 4, nil))
	// Trace flag set with a truncated (8 of 16 byte) trace context.
	f.Add(oldFrame(4, frameRequest|typExt, 5, append([]byte{flagTrace}, make([]byte, 8)...)))
	// Unknown flag bits.
	f.Add(oldFrame(5, frameRequest|typExt, 6, []byte{0xFE}))
	// Flags byte present but zero: legal, no extension data.
	f.Add(oldFrame(6, frameRequest|typExt, 7, []byte{0}))
	// Truncated length prefix and truncated body.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 50, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		id, typ, op, ext, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if typ&typExt != 0 {
			t.Fatalf("readFrame leaked the extension bit: typ=%#02x", typ)
		}
		var buf bytes.Buffer
		if werr := writeFrame(&buf, id, typ, op, ext, payload); werr != nil {
			t.Fatalf("re-encode of a parsed frame failed: %v", werr)
		}
		// The gather writer must emit the same bytes however the payload
		// is segmented.
		if len(payload) > 1 {
			mid := len(payload) / 2
			var vbuf bytes.Buffer
			if werr := writeFrame(&vbuf, id, typ, op, ext, payload[:mid], payload[mid:]); werr != nil {
				t.Fatalf("segmented re-encode failed: %v", werr)
			}
			if !bytes.Equal(vbuf.Bytes(), buf.Bytes()) {
				t.Fatalf("segmented encoding differs:\n got %x\nwant %x", vbuf.Bytes(), buf.Bytes())
			}
		}
		id2, typ2, op2, ext2, payload2, err2 := readFrame(&buf)
		if err2 != nil {
			t.Fatalf("re-parse failed: %v", err2)
		}
		if id2 != id || typ2 != typ || op2 != op || !bytes.Equal(payload2, payload) {
			t.Fatal("frame round trip changed id/typ/op/payload")
		}
		switch {
		case ext == nil && ext2 != nil, ext != nil && ext2 == nil:
			t.Fatal("frame round trip changed extension presence")
		case ext != nil && *ext != *ext2:
			t.Fatal("frame round trip changed the trace extension")
		}
	})
}

// TestVectoredWriteBytesIdentical pins the zero-copy write path at the
// byte level: the same frame written over a real TCP connection — where
// writeFrame takes the net.Buffers (writev) branch — must be identical
// to the coalesced single-buffer encoding, however the payload is
// segmented, and identical to the original pre-extension format when
// untraced.
func TestVectoredWriteBytesIdentical(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	segmentings := [][][]byte{
		{payload},
		{payload[:16], payload[16:]},
		{payload[:1], payload[1:2048], payload[2048:]},
		{payload[:0], payload, nil}, // empty segments are legal
	}
	for _, ext := range []*TraceExt{nil, {Trace: 0xfeed, Span: 0x0b0e}} {
		var want bytes.Buffer
		if err := writeFrame(&want, 11, frameRequest, 9, ext, payload); err != nil {
			t.Fatal(err)
		}
		if ext == nil {
			if old := oldFrame(11, frameRequest, 9, payload); !bytes.Equal(want.Bytes(), old) {
				t.Fatalf("coalesced untraced frame differs from the old format:\n got %x\nwant %x", want.Bytes(), old)
			}
		}
		for i, segs := range segmentings {
			got := captureTCPWrite(t, func(conn net.Conn) error {
				return writeFrame(conn, 11, frameRequest, 9, ext, segs...)
			}, want.Len())
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("ext=%v segmenting %d: vectored TCP bytes differ:\n got %x\nwant %x", ext, i, got, want.Bytes())
			}
		}
	}
}

// captureTCPWrite runs write against one end of a loopback TCP pair and
// returns exactly n bytes read from the other end.
func captureTCPWrite(t *testing.T, write func(net.Conn) error, n int) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		buf []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- res{nil, err}
			return
		}
		defer conn.Close()
		buf := make([]byte, n)
		_, err = io.ReadFull(conn, buf)
		done <- res{buf, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*net.TCPConn); !ok {
		t.Fatalf("loopback dial returned %T, want *net.TCPConn", conn)
	}
	if err := write(conn); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.buf
}
