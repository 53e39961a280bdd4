// Package faultnet injects network faults into CDD transport
// connections on a per-peer basis: added latency (with jitter), random
// I/O error rates, stalls (established traffic hangs until cleared),
// and full partitions (traffic hangs and new dials are refused). It is
// the network counterpart of internal/disk's media failure injection —
// where disk.Fail models a dead spindle, faultnet models the flaky,
// slow, or unreachable peers that dominate real-world availability.
//
// A Network hands out a transport.DialFunc whose connections route
// every read and write through the peer's current fault plan, so faults
// can be injected, varied, and healed while a workload runs. Peers are
// keyed by dial address. The connections honour write deadlines the way
// a socket does — a stalled or delayed write gives up at its deadline
// with os.ErrDeadlineExceeded — so a client over them runs the same
// deadline-bounded write path as over plain TCP.
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error of all injected faults.
var ErrInjected = errors.New("faultnet: injected fault")

// ErrPartitioned is returned for dials to a partitioned peer.
var ErrPartitioned = fmt.Errorf("%w: peer partitioned", ErrInjected)

// Network tracks per-peer fault plans and manufactures faulty
// connections.
type Network struct {
	mu    sync.Mutex
	rng   *rand.Rand
	peers map[string]*peer
}

// New creates a fault injector. The seed drives error-rate and jitter
// sampling, so chaos runs are reproducible.
func New(seed int64) *Network {
	return &Network{rng: rand.New(rand.NewSource(seed)), peers: map[string]*peer{}}
}

type peer struct {
	net *Network

	mu          sync.Mutex
	latency     time.Duration
	jitter      time.Duration
	errRate     float64
	blocked     bool          // stall or partition: established traffic hangs
	refuseDials bool          // partition: new connections fail
	unblock     chan struct{} // closed when the current block clears
}

func (n *Network) peer(addr string) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.peers[addr]
	if !ok {
		p = &peer{net: n, unblock: make(chan struct{})}
		close(p.unblock) // not blocked
		n.peers[addr] = p
	}
	return p
}

// sample draws from the network RNG under its own lock (peer locks may
// be held concurrently by many connections).
func (n *Network) sample() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// Dialer returns a transport.DialFunc-compatible dialer whose
// connections obey the target peer's fault plan.
func (n *Network) Dialer() func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		p := n.peer(addr)
		p.mu.Lock()
		refused := p.refuseDials
		p.mu.Unlock()
		if refused {
			return nil, ErrPartitioned
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &faultConn{Conn: conn, p: p, done: make(chan struct{})}, nil
	}
}

// SetLatency adds d (± jitter) to every read and write toward addr.
func (n *Network) SetLatency(addr string, d, jitter time.Duration) {
	p := n.peer(addr)
	p.mu.Lock()
	p.latency, p.jitter = d, jitter
	p.mu.Unlock()
}

// SetErrorRate makes each read/write toward addr fail (and kill its
// connection) with probability rate in [0,1].
func (n *Network) SetErrorRate(addr string, rate float64) {
	p := n.peer(addr)
	p.mu.Lock()
	p.errRate = rate
	p.mu.Unlock()
}

// Stall freezes established traffic toward addr: reads and writes hang
// until Unstall or Heal. New dials still succeed (and then hang),
// modeling a live host with a wedged service.
func (n *Network) Stall(addr string) {
	p := n.peer(addr)
	p.mu.Lock()
	p.block(false)
	p.mu.Unlock()
}

// Unstall resumes traffic frozen by Stall.
func (n *Network) Unstall(addr string) {
	p := n.peer(addr)
	p.mu.Lock()
	p.clearBlock()
	p.mu.Unlock()
}

// Partition makes addr unreachable: established traffic hangs and new
// dials fail with ErrPartitioned.
func (n *Network) Partition(addr string) {
	p := n.peer(addr)
	p.mu.Lock()
	p.block(true)
	p.mu.Unlock()
}

// Heal clears every fault on addr: latency, error rate, stall,
// partition.
func (n *Network) Heal(addr string) {
	p := n.peer(addr)
	p.mu.Lock()
	p.latency, p.jitter, p.errRate = 0, 0, 0
	p.clearBlock()
	p.mu.Unlock()
}

// HealAll clears every fault on every peer.
func (n *Network) HealAll() {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.latency, p.jitter, p.errRate = 0, 0, 0
		p.clearBlock()
		p.mu.Unlock()
	}
}

// block and clearBlock require p.mu held.
func (p *peer) block(refuseDials bool) {
	if !p.blocked {
		p.blocked = true
		p.unblock = make(chan struct{})
	}
	p.refuseDials = refuseDials || p.refuseDials
}

func (p *peer) clearBlock() {
	if p.blocked {
		p.blocked = false
		close(p.unblock)
	}
	p.refuseDials = false
}

// gate applies the peer's current fault plan to one conn operation:
// wait out stalls/partitions, charge latency, maybe inject an error. A
// wait that outlasts dl (zero = none) fails with os.ErrDeadlineExceeded.
func (p *peer) gate(c *faultConn, dl time.Time) error {
	var expired <-chan time.Time
	if !dl.IsZero() {
		t := time.NewTimer(time.Until(dl))
		defer t.Stop()
		expired = t.C
	}
	for {
		p.mu.Lock()
		if p.blocked {
			ch := p.unblock
			p.mu.Unlock()
			select {
			case <-ch:
				continue // re-evaluate the (possibly new) plan
			case <-c.done:
				return net.ErrClosed
			case <-expired:
				return os.ErrDeadlineExceeded
			}
		}
		lat := p.latency
		if p.jitter > 0 {
			lat += time.Duration(p.net.sample() * float64(p.jitter))
		}
		inject := p.errRate > 0 && p.net.sample() < p.errRate
		p.mu.Unlock()
		if lat > 0 {
			select {
			case <-time.After(lat):
			case <-c.done:
				return net.ErrClosed
			case <-expired:
				return os.ErrDeadlineExceeded
			}
		}
		if inject {
			c.Close() // a faulted link loses the connection too
			return fmt.Errorf("%w: connection reset", ErrInjected)
		}
		return nil
	}
}

// faultConn routes reads and writes through the peer's fault plan.
type faultConn struct {
	net.Conn
	p    *peer
	once sync.Once
	done chan struct{}
	wdl  atomic.Int64 // write deadline in Unix nanoseconds; 0 = none
}

func (c *faultConn) Read(b []byte) (int, error) {
	if err := c.p.gate(c, time.Time{}); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	var dl time.Time
	if ns := c.wdl.Load(); ns != 0 {
		dl = time.Unix(0, ns)
	}
	if err := c.p.gate(c, dl); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

// SetWriteDeadline bounds the injected waits of later writes as well as
// the socket write under them.
func (c *faultConn) SetWriteDeadline(t time.Time) error {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.wdl.Store(ns)
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}
