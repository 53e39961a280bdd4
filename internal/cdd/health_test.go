package cdd

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
)

// quickPolicy keeps the white-box health tests fast.
func quickPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   2,
		CallTimeout:   250 * time.Millisecond,
		BaseBackoff:   2 * time.Millisecond,
		MaxBackoff:    20 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
	}
}

func connectObs(t *testing.T, addr string) (*NodeClient, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c, err := ConnectWith(context.Background(), addr, Options{Retry: quickPolicy(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg
}

func hasEvent(reg *obs.Registry, kind obs.EventKind, subject string) bool {
	for _, e := range reg.Events().Events() {
		if e.Kind == kind && e.Subject == subject {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErrorCodeClassification exercises the typed error codes end to
// end: the manager stamps a code on the wire, and the client reacts to
// the code — not to message text.
func TestErrorCodeClassification(t *testing.T) {
	n := startNode(t, 1, 16)
	c, reg := connectObs(t, n.Addr())
	dev := c.Dev(0)
	ctx := context.Background()
	buf := make([]byte, 512)

	// A failed disk answers with CodeDiskFailed, which marks the device
	// unhealthy on the spot — no probe round trip needed.
	if err := c.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	err := dev.ReadBlocks(ctx, 0, buf)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("read of failed disk: got %v, want RemoteError", err)
	}
	if re.Code != transport.CodeDiskFailed {
		t.Fatalf("error code = %d, want CodeDiskFailed (%d)", re.Code, transport.CodeDiskFailed)
	}
	if dev.Healthy() {
		t.Error("device still healthy after CodeDiskFailed outcome")
	}
	if !hasEvent(reg, obs.EventDiskFailed, dev.subject) {
		t.Error("no disk-failed event logged")
	}

	// Recover the disk; health classification must follow.
	if err := c.ReplaceDisk(0); err != nil {
		t.Fatal(err)
	}
	dev.InvalidateHealth()
	if !dev.Healthy() {
		t.Fatal("replaced disk reported unhealthy")
	}

	// A request the caller got wrong (out-of-range block) is stamped
	// CodeBadRequest and must NOT count against the disk's health.
	err = dev.ReadBlocks(ctx, 1000, buf)
	if !errors.As(err, &re) || re.Code != transport.CodeBadRequest {
		t.Fatalf("out-of-range read: got %v, want RemoteError with CodeBadRequest", err)
	}
	if !dev.Healthy() {
		t.Error("bad request marked a healthy disk unhealthy")
	}

	// An opcode the server does not speak is CodeUnknownOp.
	_, err = c.call(ctx, 0xEE, nil)
	if !errors.As(err, &re) || re.Code != transport.CodeUnknownOp {
		t.Fatalf("unknown op: got %v, want RemoteError with CodeUnknownOp", err)
	}
}

// TestHealthyServesStaleThenRefreshes pins the TTL-expiry contract:
// Healthy never blocks on a mere cache expiry — it serves the stale
// answer and lets one background probe refresh the cache.
func TestHealthyServesStaleThenRefreshes(t *testing.T) {
	n := startNode(t, 1, 16)
	c, reg := connectObs(t, n.Addr())
	dev := c.Dev(0)

	// Fail the disk behind the cache's back, then let the TTL lapse.
	if err := c.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(dev.healthTTL + 20*time.Millisecond)

	// First call after expiry: the stale answer (healthy) is served
	// immediately; the truth arrives via the background probe.
	if !dev.Healthy() {
		t.Fatal("expired cache blocked for a fresh answer instead of serving stale")
	}
	waitFor(t, "background probe to observe the failure", func() bool { return !dev.Healthy() })
	if reg.Counter("cdd.probe_ok").Value() == 0 {
		t.Error("background refresh not counted as a probe")
	}
}

// TestInvalidateHealthSingleFlight pins the explicit-invalidation
// contract: Healthy blocks for a fresh answer, and concurrent callers
// share one probe instead of fanning out duplicates.
func TestInvalidateHealthSingleFlight(t *testing.T) {
	n := startNode(t, 1, 16)
	c, reg := connectObs(t, n.Addr())
	dev := c.Dev(0)

	probes := func() int64 {
		return reg.Counter("cdd.probe_ok").Value() + reg.Counter("cdd.probe_fail").Value()
	}
	base := probes()
	dev.InvalidateHealth()

	const callers = 8
	results := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = dev.Healthy()
		}(i)
	}
	wg.Wait()
	for i, h := range results {
		if !h {
			t.Errorf("caller %d got unhealthy from a healthy node", i)
		}
	}
	delta := probes() - base
	if delta == 0 {
		t.Error("invalidated health answered without any probe")
	}
	if delta >= callers {
		t.Errorf("%d concurrent callers issued %d probes; want single-flight sharing", callers, delta)
	}
}

// TestShortReadMarksSuspect drives the client against a server that
// truncates read responses: the protocol-level fault must feed health
// tracking (suspect + heartbeat re-admission), not just error out.
func TestShortReadMarksSuspect(t *testing.T) {
	d := disk.New(nil, "d", store.NewMem(512, 16), disk.DefaultModel())
	m := NewManager([]*disk.Disk{d})
	var truncate atomic.Bool
	truncate.Store(true)
	srv, err := transport.Serve("127.0.0.1:0", func(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
		resp, err := m.Handle(ctx, op, payload)
		if op == OpRead && err == nil && truncate.Load() && len(resp) > 0 {
			resp = resp[:len(resp)-1]
		}
		return resp, err
	}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c, reg := connectObs(t, srv.Addr())
	dev := c.Dev(0)
	ctx := context.Background()
	if err := dev.WriteBlocks(ctx, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	err = dev.ReadBlocks(ctx, 0, make([]byte, 512))
	if err == nil {
		t.Fatal("truncated read response not detected")
	}
	if dev.Healthy() {
		t.Error("short read did not mark the device suspect")
	}
	if reg.Counter("cdd.suspects").Value() == 0 {
		t.Error("suspect counter not incremented")
	}
	if !hasEvent(reg, obs.EventSuspect, dev.subject) {
		t.Error("no suspect event logged for the truncating peer")
	}

	// Stop truncating: the heartbeat (health probes are unaffected)
	// re-admits the device.
	truncate.Store(false)
	waitFor(t, "heartbeat re-admission", func() bool { return dev.Healthy() })
	if !hasEvent(reg, obs.EventReadmit, dev.subject) {
		t.Error("no re-admission event logged")
	}
}

// TestNoProbeAfterClose: an operation that fails because the node
// client was closed marks the device suspect but starts no probe, so
// cdd.probe_fail counts only probes of a live client, and an
// invalidated Healthy does not wait on one.
func TestNoProbeAfterClose(t *testing.T) {
	n := startNode(t, 1, 16)
	c, reg := connectObs(t, n.Addr())
	dev := c.Dev(0)
	base := reg.Counter("cdd.probe_fail").Value()
	c.Close()
	if err := dev.ReadBlocks(context.Background(), 0, make([]byte, 512)); err == nil {
		t.Fatal("read on a closed client succeeded")
	}
	dev.InvalidateHealth()
	if dev.Healthy() {
		t.Error("device of a closed client reported healthy")
	}
	time.Sleep(5 * quickPolicy().ProbeInterval)
	if got := reg.Counter("cdd.probe_fail").Value(); got != base {
		t.Errorf("cdd.probe_fail moved %d -> %d after Close", base, got)
	}
}
