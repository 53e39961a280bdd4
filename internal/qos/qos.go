// Package qos provides token-bucket admission control for the array's
// I/O classes. It generalizes the fixed-rate pacing scattered through
// resync and repair into one scheduler with two classes — Foreground
// (client reads/writes) and Background (repair, resync, scrub) — plus
// per-tenant fair shares inside the foreground class, so one hot
// tenant cannot starve the rest and a rebuild cannot collapse serving
// throughput.
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

// Class labels an admission stream.
type Class int

const (
	// Foreground is client-facing I/O.
	Foreground Class = iota
	// Background is maintenance I/O: repair, resync, scrub.
	Background
)

// String names the class for metrics and logs.
func (c Class) String() string {
	if c == Background {
		return "background"
	}
	return "foreground"
}

// Config sets the scheduler's rates.
type Config struct {
	// ForegroundBytesPerSec caps client I/O (0 = unlimited).
	ForegroundBytesPerSec int64
	// BackgroundBytesPerSec caps maintenance I/O (0 = unlimited).
	BackgroundBytesPerSec int64
	// BurstWindow is how much of the rate a bucket may accumulate while
	// idle (<= 0: 100 ms of the rate).
	BurstWindow time.Duration
	// TenantIdle is how long a tenant may go without an admission before
	// its share is reclaimed and redistributed (<= 0: 10 s). Expired
	// tenants keep their cumulative byte counts; a returning tenant
	// resumes from them.
	TenantIdle time.Duration
	// Obs receives per-class and per-tenant counters (nil: none).
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

func newBucket(rate int64, window time.Duration) *bucket {
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	burst := int64(float64(rate) * window.Seconds())
	if burst < 1 {
		burst = 1
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// setRate retunes the bucket in place.
func (b *bucket) setRate(rate int64, window time.Duration) {
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	b.mu.Lock()
	b.refillLocked(time.Now())
	b.rate = rate
	b.burst = int64(float64(rate) * window.Seconds())
	if b.burst < 1 {
		b.burst = 1
	}
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
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
	b.tokens += int64(float64(b.rate) * dt.Seconds())
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// limited reports whether the bucket currently enforces a rate.
func (b *bucket) limited() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate > 0
}

// limits reports the bucket's live rate and burst — the values the
// qos.*_rate_bps gauges export. Read under the bucket lock so a
// concurrent setRate (SLO feedback re-tuning) is never half-seen.
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
	if n <= 0 {
		return ctx.Err()
	}
	for {
		b.mu.Lock()
		if b.rate <= 0 {
			b.mu.Unlock()
			return ctx.Err()
		}
		now := time.Now()
		b.refillLocked(now)
		need := n
		if need > b.burst {
			need = b.burst
		}
		if b.tokens >= need {
			b.tokens -= n // may go negative: debt for oversized admissions
			b.mu.Unlock()
			return nil
		}
		deficit := need - b.tokens
		rate := b.rate
		b.mu.Unlock()
		d := time.Duration(float64(deficit) / float64(rate) * float64(time.Second))
		if d < time.Millisecond {
			d = time.Millisecond
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

type tenantState struct {
	b      *bucket
	bytes  int64
	last   time.Time // most recent admission attempt
	bytesG *obs.GaugeVal
}

// Scheduler admits I/O by class and, within the foreground class, by
// tenant fair share: each active tenant gets an equal slice of the
// foreground rate, recomputed as tenants come and go. Tenants idle
// longer than TenantIdle are expired so departed tenants stop diluting
// the shares of the ones still running (their cumulative byte counts
// are retained in retired).
type Scheduler struct {
	cfg Config
	fg  *bucket
	bg  *bucket

	mu      sync.Mutex
	fgRate  int64 // live class rates: cfg seeds them, Set*Rate re-tunes
	bgRate  int64
	tenants map[string]*tenantState
	retired map[string]int64 // admitted bytes of expired tenants

	admittedFG, admittedBG *obs.Counter
	waitsFG, waitsBG       *obs.Counter
	shareG, bytesG         *obs.GaugeVec
}

// New creates a scheduler from cfg and registers its gauges. The
// qos.fg_rate_bps / qos.bg_rate_bps gauges (and their *_burst_bytes
// companions) read the live bucket limits under the bucket lock, so
// re-tuning (SetBackgroundRate from SLO feedback) is visible in /stats
// immediately — they do NOT echo the construction-time config.
func New(cfg Config) *Scheduler {
	if cfg.TenantIdle <= 0 {
		cfg.TenantIdle = 10 * time.Second
	}
	s := &Scheduler{
		cfg:     cfg,
		fg:      newBucket(cfg.ForegroundBytesPerSec, cfg.BurstWindow),
		bg:      newBucket(cfg.BackgroundBytesPerSec, cfg.BurstWindow),
		fgRate:  cfg.ForegroundBytesPerSec,
		bgRate:  cfg.BackgroundBytesPerSec,
		tenants: map[string]*tenantState{},
		retired: map[string]int64{},
	}
	if r := cfg.Obs; r != nil {
		s.admittedFG = r.Counter("qos.fg_bytes")
		s.admittedBG = r.Counter("qos.bg_bytes")
		s.waitsFG = r.Counter("qos.fg_waits")
		s.waitsBG = r.Counter("qos.bg_waits")
		s.shareG = r.GaugeVec("qos.tenant_share_bps", "tenant")
		s.bytesG = r.GaugeVec("qos.tenant_bytes", "tenant")
		r.RegisterGauge("qos.fg_rate_bps", func() int64 { rate, _ := s.fg.limits(); return rate })
		r.RegisterGauge("qos.bg_rate_bps", func() int64 { rate, _ := s.bg.limits(); return rate })
		r.RegisterGauge("qos.fg_burst_bytes", func() int64 { _, burst := s.fg.limits(); return burst })
		r.RegisterGauge("qos.bg_burst_bytes", func() int64 { _, burst := s.bg.limits(); return burst })
		r.RegisterGauge("qos.tenants", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.tenants))
		})
	}
	return s
}

// BackgroundRate reports the live Background class rate in bytes/sec.
// Together with SetBackgroundRate it satisfies obs.Actuator, the SLO
// feedback surface.
func (s *Scheduler) BackgroundRate() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bgRate
}

// SetBackgroundRate re-tunes the Background class rate in place (0 =
// unlimited). In-flight waits observe the new rate on their next refill.
func (s *Scheduler) SetBackgroundRate(bps int64) {
	s.mu.Lock()
	s.bgRate = bps
	s.mu.Unlock()
	s.bg.setRate(bps, s.cfg.BurstWindow)
}

// ForegroundRate reports the live Foreground class rate in bytes/sec.
func (s *Scheduler) ForegroundRate() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fgRate
}

// SetForegroundRate re-tunes the Foreground class rate and every active
// tenant's share of it.
func (s *Scheduler) SetForegroundRate(bps int64) {
	s.mu.Lock()
	s.fgRate = bps
	s.retuneLocked()
	s.mu.Unlock()
	s.fg.setRate(bps, s.cfg.BurstWindow)
}

// tenant returns (creating if needed) the per-tenant bucket, expiring
// idle tenants and resizing every remaining slice to rate/len(tenants)
// when the set changes.
func (s *Scheduler) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	changed := s.sweepLocked(now, name)
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{
			b:      newBucket(0, s.cfg.BurstWindow),
			bytes:  s.retired[name],
			bytesG: s.bytesG.With(name),
		}
		ts.bytesG.Set(ts.bytes)
		delete(s.retired, name)
		s.tenants[name] = ts
		changed = true
	}
	ts.last = now
	if changed {
		s.retuneLocked()
	}
	return ts
}

// sweepLocked expires tenants whose last admission predates TenantIdle
// (keep is never expired), moving their byte counts to retired. It
// reports whether the tenant set changed.
func (s *Scheduler) sweepLocked(now time.Time, keep string) bool {
	cut := now.Add(-s.cfg.TenantIdle)
	changed := false
	for n, t := range s.tenants {
		if n != keep && t.last.Before(cut) {
			s.retired[n] += t.bytes
			delete(s.tenants, n)
			// The share gauge goes with the tenant; the cumulative byte
			// gauge stays (it is still the tenant's true total).
			s.shareG.Delete(n)
			changed = true
		}
	}
	return changed
}

// retuneLocked resizes every active tenant's slice to an equal share of
// the live foreground rate.
func (s *Scheduler) retuneLocked() {
	if s.fgRate <= 0 || len(s.tenants) == 0 {
		return
	}
	share := s.fgRate / int64(len(s.tenants))
	for n, t := range s.tenants {
		t.b.setRate(share, s.cfg.BurstWindow)
		s.shareG.With(n).Set(share)
	}
}

// Wait blocks until n bytes of class-c I/O are admitted. tenant may be
// empty (class-level admission only; background I/O typically is).
func (s *Scheduler) Wait(ctx context.Context, c Class, tenant string, n int) error {
	if n <= 0 {
		return ctx.Err()
	}
	if c == Background {
		if s.bg.limited() {
			s.waitsBG.Inc()
		}
		if err := s.bg.wait(ctx, int64(n)); err != nil {
			return err
		}
		s.admittedBG.Add(int64(n))
		return nil
	}
	var ts *tenantState
	if tenant != "" {
		ts = s.tenant(tenant)
		if err := ts.b.wait(ctx, int64(n)); err != nil {
			return err
		}
	}
	if s.fg.limited() {
		s.waitsFG.Inc()
	}
	if err := s.fg.wait(ctx, int64(n)); err != nil {
		return err
	}
	s.admittedFG.Add(int64(n))
	if ts != nil {
		s.mu.Lock()
		ts.bytes += int64(n)
		ts.bytesG.Set(ts.bytes)
		ts.last = time.Now()
		s.mu.Unlock()
	}
	return nil
}

// Pace adapts one (class, tenant) stream to the raid.PaceFunc shape —
// func(ctx, bytes) error — so repair, resync, and scrub route through
// admission control without importing this package.
func (s *Scheduler) Pace(c Class, tenant string) func(ctx context.Context, bytes int) error {
	return func(ctx context.Context, bytes int) error {
		return s.Wait(ctx, c, tenant, bytes)
	}
}

// TenantBytes snapshots cumulative admitted bytes per tenant — the
// input to fairness measurement (e.g. Jain's index). Expired tenants
// are included from their retained counts.
func (s *Scheduler) TenantBytes() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.tenants)+len(s.retired))
	for n, v := range s.retired {
		out[n] = v
	}
	for n, t := range s.tenants {
		out[n] = t.bytes
	}
	return out
}
