package qos

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/raid"
)

// TestBackgroundRateCap drives background admissions and checks the
// achieved rate stays near the configured cap.
func TestBackgroundRateCap(t *testing.T) {
	s := New(Config{BackgroundBytesPerSec: 1 << 20, BurstWindow: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const chunk = 64 << 10
	start := time.Now()
	var total int64
	for time.Since(start) < 400*time.Millisecond {
		if err := s.Wait(ctx, chunk); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		total += chunk
	}
	rate := float64(total) / time.Since(start).Seconds()
	if rate > 2.0*(1<<20) {
		t.Fatalf("background rate %.0f B/s blew past the 1 MiB/s cap", rate)
	}
	if rate < 0.3*(1<<20) {
		t.Fatalf("background rate %.0f B/s fell far below the 1 MiB/s cap", rate)
	}
}

// TestUnlimitedClassNeverBlocks checks rate 0 admits instantly and
// still counts every admitted byte.
func TestUnlimitedClassNeverBlocks(t *testing.T) {
	r := obs.NewRegistry()
	s := New(Config{Obs: r})
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := s.Wait(ctx, 1<<20); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unlimited admissions took %v", d)
	}
	c := r.Snapshot().Counters
	if got := c["qos.bg_bytes"]; got != 1000<<20 {
		t.Fatalf("qos.bg_bytes = %d, want %d", got, int64(1000)<<20)
	}
	if got := c["qos.bg_waits"]; got != 0 {
		t.Fatalf("qos.bg_waits = %d with no cap, want 0", got)
	}
}

// TestOversizedAdmission checks an I/O larger than the burst window is
// admitted (via debt) rather than deadlocking.
func TestOversizedAdmission(t *testing.T) {
	s := New(Config{BackgroundBytesPerSec: 1 << 20, BurstWindow: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx, 1<<20); err != nil {
		t.Fatalf("oversized admission: %v", err)
	}
}

// TestWaitHonorsContext checks cancellation unblocks a waiter.
func TestWaitHonorsContext(t *testing.T) {
	s := New(Config{BackgroundBytesPerSec: 1024, BurstWindow: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// An oversized admission lands immediately but leaves the bucket in
	// deep debt; the next admission must block until the debt is paid —
	// far longer than the 50 ms deadline.
	if err := s.Wait(context.Background(), 1<<20); err != nil {
		t.Fatalf("debt admission: %v", err)
	}
	if err := s.Wait(ctx, 1); err == nil {
		t.Fatal("expected context error while bucket is in debt")
	}
}

// TestRetuneRaceUnderWaiters retunes the rate — the path obs.SLOTracker
// drives under repair load — while four goroutines wait on the bucket:
// a -race canary for the bucket's rate/burst access discipline. Every
// admission completes and is counted, and the last retune is what the
// actuator and gauges read back.
func TestRetuneRaceUnderWaiters(t *testing.T) {
	r := obs.NewRegistry()
	s := New(Config{BackgroundBytesPerSec: 64 << 20, BurstWindow: time.Millisecond, Obs: r})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const waiters, admissions, chunk = 4, 200, 4 << 10
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < admissions; k++ {
				if err := s.Wait(ctx, chunk); err != nil {
					t.Errorf("Wait: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	rates := []int64{32 << 20, 0, 128 << 20, 64 << 20}
retune:
	for i := 0; ; i++ {
		select {
		case <-done:
			break retune
		default:
			s.SetBackgroundRate(rates[i%len(rates)])
		}
	}
	if got := r.Snapshot().Counters["qos.bg_bytes"]; got != waiters*admissions*chunk {
		t.Fatalf("qos.bg_bytes = %d, want %d", got, waiters*admissions*chunk)
	}
	s.SetBackgroundRate(8 << 20)
	g := r.Snapshot().Gauges
	if s.BackgroundRate() != 8<<20 || g["qos.bg_rate_bps"] != 8<<20 || g["qos.bg_burst_bytes"] != 8<<20/1000 {
		t.Fatalf("after retune: rate %d, gauges %d / %d, want %d / %d",
			s.BackgroundRate(), g["qos.bg_rate_bps"], g["qos.bg_burst_bytes"], 8<<20, 8<<20/1000)
	}
}

// TestPaceShape checks Wait is itself the raid.PaceFunc the repair
// supervisor is wired with, and admits through the bucket.
func TestPaceShape(t *testing.T) {
	r := obs.NewRegistry()
	s := New(Config{BackgroundBytesPerSec: 8 << 20, Obs: r})
	var pace raid.PaceFunc = s.Wait
	if err := pace(context.Background(), 4096); err != nil {
		t.Fatalf("pace: %v", err)
	}
	c := r.Snapshot().Counters
	if c["qos.bg_bytes"] != 4096 || c["qos.bg_waits"] != 1 {
		t.Fatalf("counters after one paced chunk: bytes %d waits %d, want 4096 / 1", c["qos.bg_bytes"], c["qos.bg_waits"])
	}
}

// TestLiveRateGauges pins that qos.bg_rate_bps / qos.bg_burst_bytes
// report the bucket's *live* limits (not the construction-time config),
// so SLO feedback retuning is visible in snapshots.
func TestLiveRateGauges(t *testing.T) {
	r := obs.NewRegistry()
	s := New(Config{BackgroundBytesPerSec: 8 << 20, Obs: r})

	g := r.Snapshot().Gauges
	if g["qos.bg_rate_bps"] != 8<<20 || g["qos.bg_burst_bytes"] != 8<<20/10 {
		t.Fatalf("initial gauges rate=%d burst=%d, want the configured rate and 100 ms of it", g["qos.bg_rate_bps"], g["qos.bg_burst_bytes"])
	}

	// The SLO actuator surface: rate changes land in the gauges.
	s.SetBackgroundRate(2 << 20)
	if got := s.BackgroundRate(); got != 2<<20 {
		t.Fatalf("BackgroundRate = %d, want %d", got, 2<<20)
	}
	g = r.Snapshot().Gauges
	if g["qos.bg_rate_bps"] != 2<<20 || g["qos.bg_burst_bytes"] != 2<<20/10 {
		t.Errorf("gauges after SetBackgroundRate rate=%d burst=%d, want %d / %d", g["qos.bg_rate_bps"], g["qos.bg_burst_bytes"], 2<<20, 2<<20/10)
	}
}
