// Package transport is the wire protocol of the cooperative disk
// drivers: a minimal, stdlib-only, length-prefixed binary RPC over TCP.
//
// Frames are multiplexed by request ID, so one connection carries many
// outstanding requests. The server handles each connection's requests
// in arrival order, the per-client order the CDD relies on (a background
// write before a flush on the same connection is applied before the
// flush completes), and replies in that order. Notifications (ID 0) get
// no response — the mechanism behind deferred mirror pushes. A reply
// waits while the next request is whole in the read buffer with its
// opcode (under 64 KiB held); then all held replies leave in one write.
//
// A client has two request methods, Call and Notify, and one way to
// write a frame: inline under the session's write lock, bounded by the
// request's deadline armed as the conn's write deadline. A deadline or
// cancellation abandons the call. If the request frame had not been
// fully written yet the connection is closed (a partial frame would
// desynchronize the stream); if the frame was sent, the connection stays
// usable and the eventual response is dropped. A client whose connection
// has broken re-dials automatically on the next call, so a
// crashed-and-restarted peer is reached again without rebuilding the
// client.
//
// The data path allocates nothing per byte (DESIGN.md §10): a request is
// a gather list that goes to a TCP session as one writev — header, trace
// extension, and payload segments are never coalesced into a staging
// buffer — and a bulk response lands in caller-provided memory with one
// copy: out of the connection's read buffer, which takes in whatever
// part of the payload has already arrived, or straight off the socket
// for a remainder at least as large as that buffer. Frame headers come
// from a pool. A server hands its handler a request payload that fits
// the connection's read buffer as a view of that buffer, uncopied; a
// larger one lands in a pooled buffer, released once its reply is out.
//
// Frame layout (big endian):
//
//	uint32 frame length (bytes after this field)
//	uint64 request id   (0 = notification)
//	uint8  type         (0 request, 1 response-ok, 2 response-error;
//	                     bit 7 set = a flags byte follows the op)
//	uint8  op           (application opcode; echoed in responses)
//	[uint8 flags]       (only when type bit 7 is set)
//	[16 B  trace ext]   (only when flags bit 0 is set: trace id, span id)
//	...    payload
//
// The flags byte is the frame format's extension point. A frame without
// bit 7 in its type byte is byte-identical to the original format, so a
// peer that omits the flag (an older build, or simply an untraced
// request) interoperates unchanged; frames carrying unknown flag bits
// are rejected as malformed rather than misparsed. The only extension
// so far is the 16-byte trace context (internal/trace) that lets a
// server record its handler spans into the caller's trace.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	frameRequest = 0
	frameOK      = 1
	frameError   = 2
	headerLen    = 8 + 1 + 1
	// typExt flags that an extension flags byte follows the op byte.
	typExt = 0x80
	// flagTrace flags a 16-byte trace context after the flags byte.
	flagTrace = 0x01
	// traceExtLen is the flags byte plus the trace context.
	traceExtLen = 1 + 16
	// MaxFrame bounds a frame's size (16 MiB) to stop a corrupt length
	// prefix from exhausting memory.
	MaxFrame = 16 << 20
	// MaxPayload is the largest payload that fits in one frame.
	MaxPayload = MaxFrame - headerLen
	// DefaultDialTimeout bounds each connection attempt.
	DefaultDialTimeout = 5 * time.Second
	// connBufSize sizes a client connection's read buffer: big enough
	// that a frame header never costs its own syscall, small enough to
	// be cheap per connection.
	connBufSize = 64 << 10
	// serverBufSize sizes a server connection's read buffer, which a
	// request payload that fits is handed to its handler as a view of.
	serverBufSize = 128 << 10
	// maxHeld bounds the reply bytes a server connection holds back to
	// send in one write.
	maxHeld = 64 << 10
)

// Handler processes one request and returns the response payload. ctx
// carries the request's resumed trace context when the frame had one
// (and the server a tracer); it is not otherwise used for cancellation
// today. The payload is valid only until the handler returns — a view of
// the connection's read buffer, or a pooled buffer if too large — so a
// handler that keeps bytes copies them; the response may alias it. An
// error sends a response-error frame; its text travels to the caller,
// prefixed by a one-byte error code (CodeGeneric unless the error
// carries one via WithCode).
type Handler func(ctx context.Context, op uint8, payload []byte) ([]byte, error)

// TraceExt is a frame's optional trace extension: the caller's trace
// and the span that issued the request (the parent of any spans the
// server records).
type TraceExt struct {
	Trace trace.TraceID
	Span  trace.SpanID
}

// Error codes carried in the first byte of a response-error frame, so
// clients classify remote failures structurally instead of matching
// error-message text.
const (
	// CodeGeneric is any application error without a more specific code.
	CodeGeneric uint8 = 0
	// CodeDiskFailed: the node is reachable but the addressed disk has
	// failed — the classification health tracking keys on.
	CodeDiskFailed uint8 = 1
	// CodeBadRequest: the request was malformed or out of range.
	CodeBadRequest uint8 = 2
	// CodeUnknownOp: the opcode is not implemented by the peer.
	CodeUnknownOp uint8 = 3
	// CodeOversized: the handler's response exceeded MaxPayload.
	CodeOversized uint8 = 4
	// CodeStaleEpoch: the request was tagged with an array-layout epoch
	// generation older than the node's — the client's placement map
	// predates a completed rebalance. Retryable once the client
	// refreshes its layout.
	CodeStaleEpoch uint8 = 5
)

// codedError attaches a wire code to a handler error.
type codedError struct {
	code uint8
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// WithCode wraps err so that, when it crosses the wire as a
// response-error frame, the peer's RemoteError carries the given code.
func WithCode(code uint8, err error) error {
	if err == nil {
		return nil
	}
	return &codedError{code: code, err: err}
}

// codeOf extracts the wire code from a handler error.
func codeOf(err error) uint8 {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return CodeGeneric
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("transport: connection closed")

// ErrFrameTooLarge is returned at send time for payloads that exceed
// MaxPayload — emitting the frame would only make the peer kill the
// connection with an opaque "bad frame length" error.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// RemoteError is a server-side error delivered to the caller. Its
// presence proves the peer received and processed the request, so it is
// never worth retrying at the transport level. Code classifies the
// failure (CodeDiskFailed, CodeBadRequest, ...); Msg is human-readable
// detail that callers must not dispatch on.
type RemoteError struct {
	Op   uint8
	Code uint8
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error (op %d, code %d): %s", e.Op, e.Code, e.Msg)
}

// RespSizeError is returned by a scattering Call when the peer's response
// does not exactly fill the caller's landing buffers. The frame was
// still consumed (the stream stays in sync) but none of the payload is
// delivered. It proves the peer processed the request, so — like
// RemoteError — it is not a transport-level failure worth retrying.
type RespSizeError struct {
	Got, Want int
}

func (e *RespSizeError) Error() string {
	return fmt.Sprintf("transport: response size %d bytes, want %d", e.Got, e.Want)
}

// encodeErrorPayload renders a handler error as a response-error frame
// payload: one code byte followed by the message text.
func encodeErrorPayload(code uint8, msg string) []byte {
	b := make([]byte, 1+len(msg))
	b[0] = code
	copy(b[1:], msg)
	return b
}

// decodeRemoteError parses a response-error payload. Only ever invoked
// for frameError responses, so the success path builds no error state.
// An empty payload (a pre-code peer, or a truncating one) degrades to
// CodeGeneric.
func decodeRemoteError(op uint8, payload []byte) *RemoteError {
	re := &RemoteError{Op: op}
	if len(payload) > 0 {
		re.Code = payload[0]
		if len(payload) > 1 {
			re.Msg = string(payload[1:])
		}
	}
	return re
}

// frameScratch holds the per-write transient state of one write: the
// encoded headers of its frames and the reusable gather list. Pooled so
// the hot path allocates neither.
type frameScratch struct {
	hdrs []byte
	vecs net.Buffers
}

var framePool = sync.Pool{New: func() any { return new(frameScratch) }}

// writeFrame emits one frame whose payload is the concatenation of
// segs. A nil ext produces bytes identical to the pre-extension frame
// format, so untraced traffic is indistinguishable from an older peer's.
// No bytes are written when the frame would exceed MaxFrame, so an
// ErrFrameTooLarge does not desynchronize the stream.
//
// On a TCP session the header and segments go out as one vectored write
// (writev) with no coalescing copy. Other writers (pipes, fault
// injectors, in-memory buffers) get the frame as a single Write from a
// pooled staging buffer — one Write per frame either way, so per-write
// fault injection charges frames, not segments.
func writeFrame(w io.Writer, id uint64, typ, op uint8, ext *TraceExt, segs ...[]byte) error {
	extLen := 0
	if ext != nil {
		extLen = traceExtLen
	}
	if err := fits(extLen, segs); err != nil {
		return err
	}
	scr := framePool.Get().(*frameScratch)
	scr.hdrs = appendHeader(scr.hdrs[:0], id, typ, op, ext, segs)
	var err error
	if tc, ok := w.(*net.TCPConn); ok {
		scr.vecs = appendFrame(scr.vecs, scr.hdrs, segs)
		err = scr.writev(tc)
	} else {
		err = writeFlat(w, scr.hdrs, segs)
	}
	framePool.Put(scr)
	return err
}

// writev sends the gathered frames as one vectored write and empties
// the gather list, dropping its payload references.
func (scr *frameScratch) writev(w io.Writer) error {
	// WriteTo advances its receiver, so keep the full view aside to
	// restore the backing array afterwards. Calling through the scratch's
	// field (not a local copy) keeps the slice header off the heap — a
	// local would escape into the pointer receiver and cost an allocation
	// per write.
	full := scr.vecs
	_, err := scr.vecs.WriteTo(w)
	clear(full)
	scr.vecs = full[:0]
	return err
}

// fits fails with ErrFrameTooLarge when a frame of segs and an
// extension of extLen bytes would exceed MaxFrame.
func fits(extLen int, segs [][]byte) error {
	if total := payloadLen(segs); extLen+total > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes exceeds %d", ErrFrameTooLarge, total, MaxPayload-extLen)
	}
	return nil
}

// appendHeader appends the encoded header of a frame whose payload is
// segs: length prefix, fixed header and, given ext, the trace extension.
func appendHeader(b []byte, id uint64, typ, op uint8, ext *TraceExt, segs [][]byte) []byte {
	n := headerLen + payloadLen(segs)
	if ext != nil {
		n += traceExtLen
		typ |= typExt
	}
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	b = binary.BigEndian.AppendUint64(b, id)
	b = append(b, typ, op)
	if ext != nil {
		b = append(b, flagTrace)
		b = binary.BigEndian.AppendUint64(b, uint64(ext.Trace))
		b = binary.BigEndian.AppendUint64(b, uint64(ext.Span))
	}
	return b
}

// appendFrame appends a frame's header and non-empty segments to vecs.
func appendFrame(vecs net.Buffers, hdr []byte, segs [][]byte) net.Buffers {
	vecs = append(vecs, hdr)
	for _, s := range segs {
		if len(s) > 0 {
			vecs = append(vecs, s)
		}
	}
	return vecs
}

// writeFlat writes one frame as a single Write from a pooled staging
// buffer.
func writeFlat(w io.Writer, hdr []byte, segs [][]byte) error {
	buf := bufpool.Get(len(hdr) + payloadLen(segs))
	n := copy(buf, hdr)
	for _, s := range segs {
		n += copy(buf[n:], s)
	}
	_, err := w.Write(buf)
	bufpool.Put(buf)
	return err
}

// frameHeader is the parsed fixed part of a frame (everything but the
// payload). typ has the extension bit stripped; ext is valid only when
// hasExt is set.
type frameHeader struct {
	id     uint64
	typ    uint8
	op     uint8
	ext    TraceExt
	hasExt bool
}

// headerScratch is the caller-owned read buffer for readFrameHeader:
// one per connection, so parsing a frame header allocates nothing (a
// function-local array would escape into io.ReadFull's interface
// argument and cost a heap allocation per frame).
type headerScratch [4 + headerLen + 16]byte

// readFrameHeader parses a frame's length prefix, fixed header, and
// optional extension, leaving exactly the returned payload length
// unread on r. Splitting the header from the payload is what lets
// readers choose where the payload lands (a pooled buffer, the caller's
// own memory, or /dev/null for an unclaimed response) without an
// intermediate copy.
func readFrameHeader(r io.Reader, scratch *headerScratch) (fh frameHeader, payloadLen int, err error) {
	buf := scratch[:4+headerLen]
	if _, err = io.ReadFull(r, buf); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(buf[0:4])
	if n < headerLen || n > MaxFrame {
		err = fmt.Errorf("transport: bad frame length %d", n)
		return
	}
	fh.id = binary.BigEndian.Uint64(buf[4:12])
	fh.typ = buf[12]
	fh.op = buf[13]
	rem := int(n) - headerLen
	if fh.typ&typExt == 0 {
		return fh, rem, nil
	}
	fh.typ &^= typExt
	if rem < 1 {
		err = fmt.Errorf("transport: frame advertises flags but is truncated")
		return
	}
	if _, err = io.ReadFull(r, scratch[:1]); err != nil {
		return
	}
	rem--
	flags := scratch[0]
	if flags&^uint8(flagTrace) != 0 {
		err = fmt.Errorf("transport: unknown frame flags %#02x", flags)
		return
	}
	if flags&flagTrace != 0 {
		if rem < 16 {
			err = fmt.Errorf("transport: truncated trace extension (%d bytes)", rem)
			return
		}
		tb := scratch[:16]
		if _, err = io.ReadFull(r, tb); err != nil {
			return
		}
		rem -= 16
		fh.ext = TraceExt{
			Trace: trace.TraceID(binary.BigEndian.Uint64(tb[0:8])),
			Span:  trace.SpanID(binary.BigEndian.Uint64(tb[8:16])),
		}
		fh.hasExt = true
	}
	return fh, rem, nil
}

// Server accepts CDD connections and dispatches requests to a Handler.
type Server struct {
	ln      net.Listener
	handler Handler
	tracer  *trace.Tracer
	recycle bool
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	// replyWrites counts the writes that carried replies (one writev each
	// on TCP), for the tests that pin how replies share a write.
	replyWrites atomic.Int64
}

// ServerOptions tune a server. The zero value serves without tracing.
type ServerOptions struct {
	// Tracer, when non-nil, resumes the trace context of incoming
	// frames: each traced request is handled under a "transport.serve"
	// span recorded into this tracer as a child of the caller's span.
	Tracer *trace.Tracer
	// RecycleResponses releases each handler's response slice to the
	// buffer pool once its frame is on the wire, completing the pool
	// cycle for read-heavy handlers. Enable only when every handler
	// returns a buffer it owns outright and does not retain, or a slice
	// of its request payload (which is never pooled).
	RecycleResponses bool
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections in the background.
func Serve(addr string, h Handler, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: h, tracer: opts.Tracer, recycle: opts.RecycleResponses, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var held replyBatch
	defer func() {
		s.flush(conn, &held) // best effort: replies held when a read failed
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	remote := conn.RemoteAddr().String()
	br := bufio.NewReaderSize(conn, serverBufSize)
	var scratch headerScratch
	for {
		fh, plen, err := readFrameHeader(br, &scratch)
		if err != nil {
			return
		}
		payload, view, err := readPayload(conn, br, plen)
		if err != nil {
			return
		}
		if fh.typ != frameRequest {
			if !view {
				bufpool.Put(payload)
			}
			continue // ignore stray frames
		}
		ctx := context.Background()
		var h trace.Handle
		if fh.hasExt && s.tracer != nil {
			// Resume the caller's trace: the serve span (and everything
			// the handler records under ctx) becomes a child of the span
			// that stamped the frame, assembled across nodes later.
			ctx = trace.Resume(ctx, s.tracer, fh.ext.Trace, fh.ext.Span)
			ctx, h = trace.Start(ctx, "transport.serve", remote)
			h.Val = int64(plen)
		}
		resp, herr := s.handler(ctx, fh.op, payload)
		h.End(herr)
		free := s.pooled(resp, payload, view)
		if fh.id == 0 {
			bufpool.Put(free[0])
			bufpool.Put(free[1])
			continue // notification: no response even on error
		}
		held.add(fh.id, fh.op, resp, herr, free)
		// A held reply may alias a view, which the next fill of br would
		// overwrite. So a reply is held only while the next frame is
		// already whole in br: reading it fills nothing, and no fill runs
		// before the held replies are flushed.
		if held.size < maxHeld && nextSameOp(br, fh.op) {
			continue // the next request's reply shares this one's write
		}
		if err := s.flush(conn, &held); err != nil {
			return
		}
	}
}

// readPayload consumes a request's plen-byte payload from br. One that
// fits in br is a view of br's buffer (view true), valid until the next
// read of br fills it. A larger one lands in a pooled buffer: what br
// already holds is copied, the rest read straight off conn.
func readPayload(conn net.Conn, br *bufio.Reader, plen int) (payload []byte, view bool, err error) {
	if plen == 0 {
		return nil, false, nil
	}
	if plen <= br.Size() {
		if payload, err = br.Peek(plen); err != nil {
			return nil, false, err
		}
		br.Discard(plen) // cannot fail: the bytes are buffered
		return payload, true, nil
	}
	payload = bufpool.Get(plen)
	n, _ := br.Read(payload) // what br holds; one read off conn if nothing
	if _, err = io.ReadFull(conn, payload[n:]); err != nil {
		bufpool.Put(payload)
		return nil, false, err
	}
	return payload, false, nil
}

// replyBatch holds a connection's replies until they go out in one
// write: their encoded headers, their payloads, and the buffers to
// release once that write is done. One per connection, reused, so
// holding a reply allocates nothing.
type replyBatch struct {
	frameScratch
	bodies [][]byte // one payload per reply
	bufs   [][]byte // buffers to pool once the write is done
	size   int      // bytes of held frames
}

// replyHdrLen is a frame header without the extension: a reply's whole
// header (replies carry none), and the part of a request nextSameOp reads.
const replyHdrLen = 4 + headerLen

// add holds the reply to request id: the handler's response, or its
// error as a response-error frame. A response too large for a frame
// becomes a CodeOversized error instead of killing the connection.
func (b *replyBatch) add(id uint64, op uint8, resp []byte, herr error, free [2][]byte) {
	b.bufs = append(b.bufs, free[0], free[1])
	typ := uint8(frameOK)
	if herr == nil {
		if err := fits(0, [][]byte{resp}); err != nil {
			herr = WithCode(CodeOversized, err)
		}
	}
	if herr != nil {
		typ, resp = frameError, encodeErrorPayload(codeOf(herr), herr.Error())
	}
	b.bodies = append(b.bodies, resp)
	b.hdrs = appendHeader(b.hdrs, id, typ, op, nil, b.bodies[len(b.bodies)-1:])
	b.size += replyHdrLen + len(resp)
}

// nextSameOp reports whether br already holds the whole next frame and it
// is a request with an id and opcode op — a request whose reply may share
// a write with the replies held before it, since it waits only behind a
// handler of the same kind. A notification ends a burst: the replies
// before it leave before it is handled.
func nextSameOp(br *bufio.Reader, op uint8) bool {
	if br.Buffered() < replyHdrLen {
		return false
	}
	b, _ := br.Peek(replyHdrLen)
	n := binary.BigEndian.Uint32(b)
	return n >= headerLen && int(n) <= br.Buffered()-4 &&
		binary.BigEndian.Uint64(b[4:12]) != 0 && b[12]&^typExt == frameRequest && b[13] == op
}

// flush writes the held replies in order as one writev (a server conn
// is always TCP), then releases their buffers and empties the batch
// whether or not the write worked.
func (s *Server) flush(conn net.Conn, b *replyBatch) error {
	if len(b.bodies) == 0 {
		return nil
	}
	hdr := func(i int) []byte { return b.hdrs[i*replyHdrLen : (i+1)*replyHdrLen] }
	s.replyWrites.Add(1)
	for i := range b.bodies {
		b.vecs = appendFrame(b.vecs, hdr(i), b.bodies[i:i+1])
	}
	err := b.writev(conn)
	for _, buf := range b.bufs {
		bufpool.Put(buf)
	}
	clear(b.bodies)
	clear(b.bufs)
	b.hdrs, b.bodies, b.bufs, b.size = b.hdrs[:0], b.bodies[:0], b.bufs[:0], 0
	return err
}

// pooled returns the buffers of a handled request that go back to the
// pool once its reply is out (nil for none): the payload unless it is a
// view, and under RecycleResponses the response unless it shares the
// payload's memory — an echo, or any slice of a view.
func (s *Server) pooled(resp, payload []byte, view bool) [2][]byte {
	if !s.recycle || sameArray(resp, payload) {
		resp = nil
	}
	if view {
		payload = nil
	}
	return [2][]byte{resp, payload}
}

// sameArray reports whether a and b slice one backing array: a slice
// taken without a capacity bound runs to its array's end.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Close stops accepting and tears down all connections, waiting for
// handler goroutines to finish.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// DialFunc produces the raw connection under a client. Fault injectors
// (internal/faultnet) substitute their own.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

func tcpDial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// DialOptions tune a client's connection management. The zero value is
// the production default: TCP and DefaultDialTimeout.
type DialOptions struct {
	// DialTimeout bounds each connection attempt (including automatic
	// reconnects). Zero means DefaultDialTimeout.
	DialTimeout time.Duration
	// Dialer overrides the raw connection factory (fault injection,
	// testing). Nil means plain TCP.
	Dialer DialFunc
	// Obs, when non-nil, receives transport counters (frames sent and
	// received, reconnects, deadline expiries, remote errors).
	Obs *obs.Registry
}

// clientMetrics are the client's transport counters, resolved once at
// dial time; all fields are nil (and all updates no-ops) without a
// registry.
type clientMetrics struct {
	framesSent      *obs.Counter
	framesRecv      *obs.Counter
	reconnects      *obs.Counter
	deadlineExpired *obs.Counter
	remoteErrors    *obs.Counter
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		framesSent:      r.Counter("transport.frames_sent"),
		framesRecv:      r.Counter("transport.frames_recv"),
		reconnects:      r.Counter("transport.reconnects"),
		deadlineExpired: r.Counter("transport.deadline_expired"),
		remoteErrors:    r.Counter("transport.remote_errors"),
	}
}

// Client is one CDD-to-CDD connection (logically: the transport keeps
// it connected across broken TCP sessions).
type Client struct {
	addr   string
	opts   DialOptions
	met    clientMetrics
	nextID atomic.Uint64

	// dialMu serializes reconnect attempts so concurrent calls over a
	// broken connection produce one new session, not many.
	dialMu sync.Mutex

	// wslot is the write lock: one slot, held while a frame is written
	// on the current connection. A channel, not a mutex, so a frame
	// queued behind a stalled write can give up on its own bound.
	wslot chan struct{}

	mu      sync.Mutex
	conn    net.Conn // current session; nil while broken
	gen     uint64   // session generation, bumps on every redial
	connErr error    // why the last session died
	pending map[uint64]*pendingCall
	closed  bool
}

// pendingCall tracks one in-flight request. dst, when non-empty, is the
// caller's landing area for a bulk response: the read loop claims it
// via dstState and copies the payload into it from the connection's
// read buffer (or the socket), so cancellation must coordinate (see the
// dstState states) before the caller may reuse the memory.
type pendingCall struct {
	ch     chan response
	gen    uint64
	dst    [][]byte
	dstLen int
	// dstState: 0 = free, 1 = claimed by the read loop (bytes are
	// landing in dst), 2 = abandoned by the caller (the read loop must
	// not touch dst).
	dstState atomic.Int32
}

func (p *pendingCall) claimDst() bool { return p.dstState.CompareAndSwap(0, 1) }

type response struct {
	typ     uint8
	op      uint8
	payload []byte
	inDst   bool // payload landed in the caller's dst; payload is nil
}

// Dial connects to a CDD server; ctx bounds the initial connection
// attempt.
func Dial(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	if opts.Dialer == nil {
		opts.Dialer = tcpDial
	}
	c := &Client{addr: addr, opts: opts, met: newClientMetrics(opts.Obs), wslot: make(chan struct{}, 1), pending: map[uint64]*pendingCall{}}
	if err := c.redial(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr reports the remote address the client (re)connects to.
func (c *Client) Addr() string { return c.addr }

// redial establishes a fresh session if none is live.
func (c *Client) redial(ctx context.Context) error {
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.conn != nil {
		c.mu.Unlock()
		return nil // someone else already reconnected
	}
	c.mu.Unlock()
	dctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
	conn, err := c.opts.Dialer(dctx, c.addr)
	cancel()
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.conn = conn
	c.gen++
	c.connErr = nil
	gen := c.gen
	c.mu.Unlock()
	if gen > 1 {
		c.met.reconnects.Inc()
	}
	go c.readLoop(conn, gen)
	return nil
}

// ensureConn returns the live session, re-dialing if the previous one
// broke.
func (c *Client) ensureConn(ctx context.Context) (net.Conn, uint64, error) {
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, 0, ErrClosed
		}
		if c.conn != nil {
			conn, gen := c.conn, c.gen
			c.mu.Unlock()
			return conn, gen, nil
		}
		lastErr := c.connErr
		c.mu.Unlock()
		if attempt > 0 {
			// The session we just dialed broke before we could use it;
			// do not spin on a flapping peer.
			return nil, 0, lastErr
		}
		if err := c.redial(ctx); err != nil {
			return nil, 0, err
		}
	}
}

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, connBufSize)
	var scratch headerScratch
	for {
		fh, plen, err := readFrameHeader(br, &scratch)
		var p *pendingCall
		var resp response
		if err == nil {
			if fh.id != 0 {
				c.mu.Lock()
				p = c.pending[fh.id]
				c.mu.Unlock()
			}
			switch {
			case p == nil:
				// Unclaimed (abandoned call, stray frame): consume the
				// payload to keep the stream in sync, allocating nothing.
				if plen > 0 {
					_, err = io.CopyN(io.Discard, br, int64(plen))
				}
			case fh.typ == frameOK && plen == p.dstLen && p.dstLen > 0 && p.claimDst():
				// Bulk response: scatter the payload into the caller's
				// buffers. The claim blocks the caller from
				// reusing them mid-read if it gives up (see call).
				resp.inDst = true
				for _, d := range p.dst {
					if _, err = io.ReadFull(br, d); err != nil {
						break
					}
				}
			default:
				buf := make([]byte, plen)
				_, err = io.ReadFull(br, buf)
				resp.payload = buf
			}
		}
		if err != nil {
			conn.Close()
			c.mu.Lock()
			if c.gen == gen && c.conn == conn {
				c.conn = nil
				c.connErr = err
			}
			for pid, pc := range c.pending {
				if pc.gen == gen {
					delete(c.pending, pid)
					close(pc.ch)
				}
			}
			c.mu.Unlock()
			return
		}
		c.met.framesRecv.Inc()
		if p == nil {
			continue
		}
		resp.typ, resp.op = fh.typ, fh.op
		c.mu.Lock()
		_, ok := c.pending[fh.id]
		if ok {
			delete(c.pending, fh.id)
		}
		c.mu.Unlock()
		if ok {
			p.ch <- resp
		}
	}
}

// brokenErr explains why a pending call's channel was closed.
func (c *Client) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.connErr != nil {
		return c.connErr
	}
	return ErrClosed
}

// payloadLen sums a gather/scatter list's bytes.
func payloadLen(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// Call sends a request and waits for its response. req is the request
// as a gather list: its segments go to the wire back-to-back (one
// vectored write, no coalescing copy) and arrive at the peer as one
// contiguous payload; the transport only reads them during the call.
//
// With an empty resp the response payload is returned. With a non-empty
// resp a successful payload is copied into its segments, allocating
// nothing, and the returned payload is nil; a response that does not
// exactly fill them consumes the frame but fails with *RespSizeError.
// The caller must not touch resp's segments until Call returns.
//
// dl (zero = none) is the call's deadline, merged with ctx's. Passing it
// as a plain time.Time instead of wrapping ctx in context.WithTimeout
// keeps the hot path allocation-free: it is armed as the conn's write
// deadline plus one pooled timer for the response. A deadline or
// cancellation abandons the call without waiting for the peer or for
// frames queued ahead of it (dropping the session if the request frame
// was not fully written); expiry
// returns context.DeadlineExceeded. A traced context (internal/trace)
// records the exchange as a "transport.call" span and stamps the frame
// with the trace extension so the server can continue the trace.
func (c *Client) Call(ctx context.Context, op uint8, req, resp [][]byte, dl time.Time) ([]byte, error) {
	ext, h := c.startWire(ctx, "transport.call", payloadLen(req))
	payload, err := c.call(ctx, op, ext, req, resp, dl)
	h.End(err)
	return payload, err
}

// Notify sends a fire-and-forget request (no response; errors on the
// server are dropped) — used for deferred mirror pushes. It shares the
// session with Call and re-dials a broken one. timeout (zero = none)
// bounds the frame's write from when it takes the session's write lock,
// so a push queued behind other frames is not charged for their writes,
// each bounded by its own deadline; ctx bounds the wait and the write
// too. Past a bound mid-write the push fails with
// context.DeadlineExceeded and drops the session.
func (c *Client) Notify(ctx context.Context, op uint8, req [][]byte, timeout time.Duration) error {
	ext, h := c.startWire(ctx, "transport.notify", payloadLen(req))
	conn, _, err := c.ensureConn(ctx)
	if err == nil {
		err = c.send(ctx, conn, 0, op, ext, req, deadline(ctx, time.Time{}), timeout)
	}
	h.End(err)
	return err
}

// startWire opens the client-side span for one frame exchange and
// builds the trace extension that carries it; both are zero for an
// untraced context.
func (c *Client) startWire(ctx context.Context, name string, payloadBytes int) (*TraceExt, trace.Handle) {
	if _, ok := trace.FromContext(ctx); !ok {
		return nil, trace.Handle{}
	}
	tctx, h := trace.Start(ctx, name, c.addr)
	h.Val = int64(payloadBytes)
	sc, ok := trace.FromContext(tctx)
	if !ok {
		return nil, h
	}
	return &TraceExt{Trace: sc.Trace, Span: sc.Span}, h
}

// timerPool recycles the per-call deadline timers; they are always
// returned stopped and drained, so Reset on a pooled timer is safe
// under the pre-1.23 timer semantics this module builds with.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// deadline is the earlier of dl (zero = none) and ctx's deadline.
func deadline(ctx context.Context, dl time.Time) time.Time {
	if cdl, ok := ctx.Deadline(); ok && (dl.IsZero() || cdl.Before(dl)) {
		return cdl
	}
	return dl
}

func (c *Client) call(ctx context.Context, op uint8, ext *TraceExt, req [][]byte, dst [][]byte, dl time.Time) ([]byte, error) {
	conn, gen, err := c.ensureConn(ctx)
	if err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	pc := &pendingCall{ch: make(chan response, 1), gen: gen}
	if len(dst) > 0 {
		pc.dst = dst
		pc.dstLen = payloadLen(dst)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.conn != conn || c.gen != gen {
		// The session died between ensureConn and registration; its
		// drain already ran, so registering now would hang forever.
		err := c.connErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	c.pending[id] = pc
	c.mu.Unlock()

	unregister := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}

	dl = deadline(ctx, dl)
	if err := c.send(ctx, conn, id, op, ext, req, dl, 0); err != nil {
		unregister()
		return nil, err
	}

	var tm *time.Timer
	var timerC <-chan time.Time
	if !dl.IsZero() {
		tm = getTimer(time.Until(dl))
		timerC = tm.C
	}
	var resp response
	var respOK bool
	var abort error
	select {
	case resp, respOK = <-pc.ch:
	case <-ctx.Done():
		abort = ctx.Err()
	case <-timerC:
		abort = context.DeadlineExceeded
	}
	if tm != nil {
		putTimer(tm)
	}
	if abort != nil {
		if pc.dstLen > 0 && !pc.dstState.CompareAndSwap(0, 2) {
			// The read loop claimed dst: bytes may be landing in the
			// caller's buffers right now, so returning would hand the
			// caller memory the socket is still writing. Kill the
			// session to bound the read and wait for it to finish
			// (the channel gets a response or is closed by teardown).
			select {
			case <-pc.ch: // already fully landed and delivered
			default:
				c.dropConn(conn, abort)
				<-pc.ch
			}
		}
		unregister()
		c.met.deadlineExpired.Inc()
		return nil, abort
	}
	if !respOK {
		return nil, c.brokenErr()
	}
	if resp.typ == frameError {
		c.met.remoteErrors.Inc()
		return nil, decodeRemoteError(resp.op, resp.payload)
	}
	if pc.dstLen > 0 && !resp.inDst {
		return nil, &RespSizeError{Got: len(resp.payload), Want: pc.dstLen}
	}
	return resp.payload, nil
}

// send writes one request frame (id 0: a notification) inline under the
// write lock, bounded through the conn's write deadline by dl and by
// timeout (zero = none) counted from taking the lock — the runtime's
// netpoll interrupts a blocked socket write, so no goroutine is needed
// to abandon it. A frame still waiting for the lock when dl passes or
// ctx ends is not written and leaves the session up. A ctx that can be
// cancelled but set no deadline closes the session if it fires
// mid-write. Any other failure but an oversized frame (nothing written)
// drops the session, since a partial frame desynchronizes the stream;
// an expired deadline reports context.DeadlineExceeded, a cancellation
// ctx.Err().
func (c *Client) send(ctx context.Context, conn net.Conn, id uint64, op uint8, ext *TraceExt, req [][]byte, dl time.Time, timeout time.Duration) error {
	if err := c.lockWrite(ctx, dl); err != nil {
		c.met.deadlineExpired.Inc()
		return err
	}
	if timeout > 0 {
		if t := time.Now().Add(timeout); dl.IsZero() || t.Before(dl) {
			dl = t
		}
	}
	conn.SetWriteDeadline(dl) //nolint:errcheck // zero clears; a dead conn fails the write
	stop := func() bool { return true }
	if dl.IsZero() && ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { c.dropConn(conn, ctx.Err()) })
	}
	err := writeFrame(conn, id, frameRequest, op, ext, req...)
	if !stop() && err == nil {
		err = ctx.Err() // the session was dropped under a complete frame
	}
	<-c.wslot
	switch {
	case err == nil:
		c.met.framesSent.Inc()
		return nil
	case errors.Is(err, ErrFrameTooLarge):
		return err
	}
	c.dropConn(conn, err)
	if ctx.Err() != nil {
		err = ctx.Err()
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		err = context.DeadlineExceeded
	} else {
		return err
	}
	c.met.deadlineExpired.Inc()
	return err
}

// lockWrite takes the write lock, giving up with context.DeadlineExceeded
// at dl (zero = none) or with ctx.Err() when ctx ends first — a waiter is
// bounded by its own deadline, not by the frame ahead of it. A frame
// whose time is up by when it holds the lock gets neither the lock nor
// the wire.
func (c *Client) lockWrite(ctx context.Context, dl time.Time) error {
	select {
	case c.wslot <- struct{}{}:
	default:
		var timerC <-chan time.Time
		if !dl.IsZero() {
			tm := getTimer(time.Until(dl))
			defer putTimer(tm)
			timerC = tm.C
		}
		select {
		case c.wslot <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-timerC:
			return context.DeadlineExceeded
		}
	}
	err := ctx.Err()
	if err == nil && !dl.IsZero() && !time.Now().Before(dl) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		<-c.wslot
	}
	return err
}

// dropConn retires a session whose stream can no longer be trusted (a
// failed or abandoned write), so the next call re-dials instead of
// racing the read loop's discovery of the dead socket.
func (c *Client) dropConn(conn net.Conn, cause error) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		if c.connErr == nil {
			c.connErr = cause
		}
	}
	c.mu.Unlock()
}

// Close tears down the connection. Outstanding calls fail with
// ErrClosed immediately rather than waiting for the read loop to trip
// over the dead socket — all but a call whose bulk response the read
// loop has claimed: bytes may be landing in the caller's buffers, so,
// as when such a call is abandoned, it is left to the read loop, which
// finishes it once the closed socket ends the read.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	for id, p := range c.pending {
		if p.dstLen > 0 && !p.dstState.CompareAndSwap(0, 2) {
			continue
		}
		delete(c.pending, id)
		close(p.ch)
	}
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
