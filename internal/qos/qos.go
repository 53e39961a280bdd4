// Package qos paces the array's background I/O — repair, resync, scrub
// and rebalance — through one token bucket, so maintenance traffic runs
// under an explicit cap beneath client I/O instead of racing it. The
// cap is the one knob the SLO feedback loop (obs.SLOTracker) retunes.
//
// The bucket uses a debt model: an admission larger than the burst
// window waits until the bucket is as full as it can usefully get,
// then drives the balance negative; later admissions pay the debt
// down. That admits arbitrarily large single I/Os while keeping the
// long-run rate exact.
package qos

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config sets the scheduler's rate.
type Config struct {
	// BackgroundBytesPerSec caps maintenance I/O (0 = unlimited).
	BackgroundBytesPerSec int64
	// BurstWindow is how much of the rate the bucket may accumulate
	// while idle (<= 0: 100 ms of the rate).
	BurstWindow time.Duration
	// Obs receives the qos.bg_* counters and gauges (nil: none).
	Obs *obs.Registry
}

// bucket is one token bucket with the debt model.
type bucket struct {
	mu     sync.Mutex
	rate   int64 // tokens (bytes) per second; 0 = unlimited
	burst  int64
	tokens int64 // may go negative (debt)
	last   time.Time
}

// burstOf is what a bucket at rate may bank while idle: window's worth
// of the rate (window <= 0: 100 ms), at least one byte.
func burstOf(rate int64, window time.Duration) int64 {
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	return max(int64(float64(rate)*window.Seconds()), 1)
}

// setRate retunes the bucket in place.
func (b *bucket) setRate(rate int64, window time.Duration) {
	b.mu.Lock()
	b.refillLocked(time.Now())
	b.rate = rate
	b.burst = burstOf(rate, window)
	b.tokens = min(b.tokens, b.burst)
	b.mu.Unlock()
}

func (b *bucket) refillLocked(now time.Time) {
	if b.rate <= 0 {
		return
	}
	dt := now.Sub(b.last)
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens = min(b.tokens+int64(float64(b.rate)*dt.Seconds()), b.burst)
}

// limits reports the bucket's live rate and burst — the values the
// qos.bg_* gauges export. Read under the bucket lock so a concurrent
// setRate (SLO feedback retuning) is never half-seen.
func (b *bucket) limits() (rate, burst int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate, b.burst
}

// wait blocks until n bytes are admitted or ctx is done. Admissions
// larger than the burst window wait for min(n, burst) and take the
// rest as debt. rate and burst are only ever read under b.mu — setRate
// may retune the bucket concurrently.
func (b *bucket) wait(ctx context.Context, n int64) error {
	for {
		b.mu.Lock()
		if b.rate <= 0 {
			b.mu.Unlock()
			return ctx.Err()
		}
		b.refillLocked(time.Now())
		need := min(n, b.burst)
		if b.tokens >= need {
			b.tokens -= n // may go negative: debt for oversized admissions
			b.mu.Unlock()
			return nil
		}
		d := time.Duration(float64(need-b.tokens) / float64(b.rate) * float64(time.Second))
		b.mu.Unlock()
		t := time.NewTimer(max(d, time.Millisecond))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Scheduler paces background I/O through one token bucket. Its Wait
// method is a raid.PaceFunc: repair.Config.Pace takes it as it is.
type Scheduler struct {
	window          time.Duration
	b               bucket
	admitted, waits *obs.Counter
}

// New creates a scheduler from cfg and registers its instruments. The
// qos.bg_rate_bps and qos.bg_burst_bytes gauges read the live bucket
// limits, so retuning (SetBackgroundRate from SLO feedback) is visible
// in /stats at once — they do NOT echo the construction-time config.
func New(cfg Config) *Scheduler {
	s := &Scheduler{window: cfg.BurstWindow}
	rate := cfg.BackgroundBytesPerSec
	s.b.rate, s.b.burst, s.b.last = rate, burstOf(rate, cfg.BurstWindow), time.Now()
	s.b.tokens = s.b.burst
	if r := cfg.Obs; r != nil {
		s.admitted = r.Counter("qos.bg_bytes")
		s.waits = r.Counter("qos.bg_waits")
		r.RegisterGauge("qos.bg_rate_bps", func() int64 { rate, _ := s.b.limits(); return rate })
		r.RegisterGauge("qos.bg_burst_bytes", func() int64 { _, burst := s.b.limits(); return burst })
	}
	return s
}

// BackgroundRate reports the live rate in bytes/sec. Together with
// SetBackgroundRate it satisfies obs.Actuator, the SLO feedback surface.
func (s *Scheduler) BackgroundRate() int64 {
	rate, _ := s.b.limits()
	return rate
}

// SetBackgroundRate retunes the rate in place (0 = unlimited). In-flight
// waits observe the new rate on their next refill.
func (s *Scheduler) SetBackgroundRate(bps int64) { s.b.setRate(bps, s.window) }

// Wait blocks until n bytes of background I/O are admitted or ctx is
// done.
func (s *Scheduler) Wait(ctx context.Context, n int) error {
	if n <= 0 {
		return ctx.Err()
	}
	if s.BackgroundRate() > 0 {
		s.waits.Inc()
	}
	if err := s.b.wait(ctx, int64(n)); err != nil {
		return err
	}
	s.admitted.Add(int64(n))
	return nil
}
