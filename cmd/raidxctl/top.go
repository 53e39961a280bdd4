package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// runTop is the live cluster dashboard: it polls every node's
// observability snapshot, merges them (counters by sum, histograms
// bucket-wise — the power-of-two edges are shared), and renders per-op
// throughput and tail latency, session cache hit ratio, per-tenant QoS
// shares with Jain fairness, SLO burn state, repair state, and trace-ID
// exemplars that drill into `raidxctl trace -id`. Rates and windowed
// percentiles are derived from the delta between successive polls.
func runTop(fs *flag.FlagSet, r *rig) error {
	interval, _ := time.ParseDuration(fs.Lookup("interval").Value.String())
	if interval <= 0 {
		interval = time.Second
	}
	iters := atoi(fs.Lookup("n").Value.String())
	plain := fs.Lookup("plain").Value.String() == "true"

	var prev obs.Snapshot
	var prevAt time.Time
	for i := 0; iters <= 0 || i < iters; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		merged, perNode, up := pollCluster(r)
		now := time.Now()
		var out strings.Builder
		renderTop(&out, r, merged, perNode, prev, now.Sub(prevAt), up, prevAt.IsZero())
		prev, prevAt = merged, now
		if !plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		os.Stdout.WriteString(out.String())
	}
	return nil
}

// pollCluster fetches every reachable node's snapshot and the merged
// cluster view. The per-node snapshots are kept for readings where a
// sum is the wrong aggregation (SLO burn rates want the worst node).
func pollCluster(r *rig) (obs.Snapshot, []obs.Snapshot, int) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snaps := make([]obs.Snapshot, 0, len(r.Clients))
	up := 0
	for _, c := range r.Clients {
		if c == nil {
			continue
		}
		snap, err := c.ObsSnapshot(ctx)
		if err != nil {
			continue
		}
		up++
		snaps = append(snaps, snap)
	}
	return obs.MergeSnapshots(snaps...), snaps, up
}

// counterRate derives one counter's per-second rate from the poll delta.
func counterRate(cur, prev obs.Snapshot, name string, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return float64(cur.Counters[name]-prev.Counters[name]) / dt.Seconds()
}

// windowHist derives the observations landed since the previous poll;
// falls back to the cumulative stats (ok=false) when raw buckets are
// unavailable or this is the first poll.
func windowHist(cur, prev obs.Snapshot, name string, first bool) (obs.HistogramSnapshot, bool) {
	cs, okc := cur.Histograms[name].Snapshot()
	if !okc {
		return cs, false
	}
	if first {
		return cs, true
	}
	ps, okp := prev.Histograms[name].Snapshot()
	if !okp {
		return cs, true
	}
	return cs.Sub(ps), true
}

func fmtRate(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func renderTop(w *strings.Builder, r *rig, cur obs.Snapshot, perNode []obs.Snapshot, prev obs.Snapshot, dt time.Duration, up int, first bool) {
	fmt.Fprintf(w, "raidxctl top — %s — %d/%d node(s) up", cur.Time.Format("15:04:05"), up, len(r.Addrs))
	if first {
		fmt.Fprintf(w, " — first poll (cumulative stats; rates need one interval)")
	}
	fmt.Fprintln(w)

	// Cluster throughput from the summed per-disk byte gauges.
	if !first && dt > 0 {
		var rd, wr int64
		for name, v := range cur.Gauges {
			if strings.HasPrefix(name, "disk.") && strings.HasSuffix(name, ".bytes_read") {
				rd += v
			}
			if strings.HasPrefix(name, "disk.") && strings.HasSuffix(name, ".bytes_written") {
				wr += v
			}
		}
		var prd, pwr int64
		for name, v := range prev.Gauges {
			if strings.HasPrefix(name, "disk.") && strings.HasSuffix(name, ".bytes_read") {
				prd += v
			}
			if strings.HasPrefix(name, "disk.") && strings.HasSuffix(name, ".bytes_written") {
				pwr += v
			}
		}
		fmt.Fprintf(w, "disk I/O: %.1f MB/s read, %.1f MB/s written\n",
			float64(rd-prd)/dt.Seconds()/(1<<20), float64(wr-pwr)/dt.Seconds()/(1<<20))
	}

	renderOps(w, cur, prev, dt, first)
	renderCache(w, cur)
	renderVolumes(w, cur, "")
	renderQoS(w, cur, prev, dt, first)
	renderSLO(w, perNode)
	renderRepair(w, cur)
	renderExemplars(w, cur, prev, dt, first)
}

// renderOps is the per-op table over the mgr.op_latency{op=...} family:
// windowed ops/s and windowed p50/p95/p99 per opcode.
func renderOps(w *strings.Builder, cur, prev obs.Snapshot, dt time.Duration, first bool) {
	type opRow struct {
		op   string
		s    obs.HistogramSnapshot
		rate float64
	}
	var rows []opRow
	for name := range cur.Histograms {
		base, _ := obs.SplitLabeled(name)
		if base != "mgr.op_latency" {
			continue
		}
		s, _ := windowHist(cur, prev, name, first)
		if s.Count == 0 {
			continue
		}
		rate := 0.0
		if !first && dt > 0 {
			rate = float64(s.Count) / dt.Seconds()
		}
		rows = append(rows, opRow{op: obs.LabelValue(name, "op"), s: s, rate: rate})
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s.Count > rows[j].s.Count })
	fmt.Fprintln(w, "ops (since last poll):")
	fmt.Fprintf(w, "  %-14s %10s %10s %10s %10s %10s\n", "op", "count", "ops/s", "p50", "p95", "p99")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-14s %10d %10s %10s %10s %10s\n",
			row.op, row.s.Count, fmtRate(row.rate),
			row.s.Percentile(50).Round(time.Microsecond),
			row.s.Percentile(95).Round(time.Microsecond),
			row.s.Percentile(99).Round(time.Microsecond))
	}
}

func renderCache(w *strings.Builder, cur obs.Snapshot) {
	hits, misses := cur.Counters["sess.cache_hits"], cur.Counters["sess.cache_misses"]
	if hits+misses == 0 {
		return
	}
	fmt.Fprintf(w, "session cache: %d hits / %d misses (%.1f%% hit ratio)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))
}

// renderQoS shows live class rates, per-tenant shares and windowed
// per-tenant throughput with Jain's fairness index over it.
func renderQoS(w *strings.Builder, cur, prev obs.Snapshot, dt time.Duration, first bool) {
	fg, okFG := cur.Gauges["qos.fg_rate_bps"]
	bg, okBG := cur.Gauges["qos.bg_rate_bps"]
	if !okFG && !okBG {
		return
	}
	fmt.Fprintf(w, "qos (cluster aggregate): fg rate %s, bg rate %s\n", fmtBps(fg), fmtBps(bg))
	type tenantRow struct {
		name        string
		share, rate int64
	}
	var rows []tenantRow
	var deltas []float64
	for name, v := range cur.Gauges {
		base, _ := obs.SplitLabeled(name)
		if base != "qos.tenant_bytes" {
			continue
		}
		tn := obs.LabelValue(name, "tenant")
		row := tenantRow{name: tn}
		row.share = cur.Gauges[obs.LabelName("qos.tenant_share_bps", "tenant", tn)]
		if !first && dt > 0 {
			row.rate = int64(float64(v-prev.Gauges[name]) / dt.Seconds())
			deltas = append(deltas, float64(v-prev.Gauges[name]))
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(w, "  %-16s %12s %12s\n", "tenant", "share", "rate")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-16s %12s %12s\n", row.name, fmtBps(row.share), fmtBps(row.rate))
	}
	if j, ok := jain(deltas); ok {
		fmt.Fprintf(w, "  Jain fairness over interval: %.3f (1.0 = perfectly fair across %d tenants)\n", j, len(deltas))
	}
}

// jain is Jain's fairness index (Σx)²/(n·Σx²) over active allocations.
func jain(xs []float64) (float64, bool) {
	var sum, sq float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += x
		sq += x * x
		n++
	}
	if n == 0 || sq == 0 || math.IsNaN(sq) {
		return 0, false
	}
	return sum * sum / (float64(n) * sq), true
}

func fmtBps(v int64) string {
	switch {
	case v <= 0:
		return "unlimited"
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MB/s", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KB/s", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%d B/s", v)
	}
}

// renderSLO reads the slo.* gauges per node and reports the WORST
// node per objective — summing burn rates across nodes (the merged
// view) would overstate the burn N-fold.
func renderSLO(w *strings.Builder, perNode []obs.Snapshot) {
	type sloAgg struct {
		burning    bool
		fast, slow float64
	}
	aggs := map[string]*sloAgg{}
	var names []string
	for _, snap := range perNode {
		for name, v := range snap.Gauges {
			rest, ok := strings.CutPrefix(name, "slo.")
			if !ok || !strings.HasSuffix(rest, ".burning") {
				continue
			}
			slo := strings.TrimSuffix(rest, ".burning")
			a := aggs[slo]
			if a == nil {
				a = &sloAgg{}
				aggs[slo] = a
				names = append(names, slo)
			}
			if v > 0 {
				a.burning = true
			}
			if f := float64(snap.Gauges["slo."+slo+".fast_burn_milli"]) / 1000; f > a.fast {
				a.fast = f
			}
			if s := float64(snap.Gauges["slo."+slo+".slow_burn_milli"]) / 1000; s > a.slow {
				a.slow = s
			}
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintln(w, "slo (worst node):")
	for _, slo := range names {
		a := aggs[slo]
		state := "ok"
		if a.burning {
			state = "BURNING"
		}
		fmt.Fprintf(w, "  %-16s %-8s burn fast %.2f slow %.2f\n", slo, state, a.fast, a.slow)
	}
}

func renderRepair(w *strings.Builder, cur obs.Snapshot) {
	var busy []string
	for name, v := range cur.Gauges {
		base, _ := obs.SplitLabeled(name)
		if base != "repair.dev_state" || v == 0 {
			continue
		}
		st := map[int64]string{1: "suspect", 2: "degraded", 3: "rebuilding", 4: "resyncing"}[v]
		if st == "" {
			st = strconv.FormatInt(v, 10)
		}
		busy = append(busy, fmt.Sprintf("D%s %s", obs.LabelValue(name, "dev"), st))
	}
	if len(busy) == 0 {
		if _, ok := cur.Gauges["repair.active"]; ok {
			fmt.Fprintln(w, "repair: all devices healthy")
		}
		return
	}
	sort.Strings(busy)
	paused := ""
	if cur.Gauges["repair.paused"] > 0 {
		paused = " [PAUSED]"
	}
	fmt.Fprintf(w, "repair%s: %s (resynced %d KB)\n", paused,
		strings.Join(busy, ", "), cur.Gauges["repair.resync_bytes"]>>10)
}

// renderExemplars surfaces the slowest recent traced observations so
// the operator can jump from a bad p99 straight to its trace.
func renderExemplars(w *strings.Builder, cur, prev obs.Snapshot, dt time.Duration, first bool) {
	type ex struct {
		hist string
		e    obs.Exemplar
	}
	var all []ex
	for name, st := range cur.Histograms {
		if st.Exemplar == nil || st.Exemplar.TraceID == 0 {
			continue
		}
		all = append(all, ex{hist: name, e: *st.Exemplar})
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.Dur > all[j].e.Dur })
	if len(all) > 3 {
		all = all[:3]
	}
	fmt.Fprintln(w, "slow exemplars (drill in with raidxctl trace -id <trace> -addrs ...):")
	for _, x := range all {
		age := time.Since(time.Unix(0, x.e.At)).Round(time.Second)
		fmt.Fprintf(w, "  %-28s %10s  trace %016x  (%s ago)\n",
			x.hist, x.e.Dur.Round(time.Microsecond), x.e.TraceID, age)
	}
}

// runTraceByID assembles one trace from the nodes' span rings — the
// exemplar drill-down path from `raidxctl top`. The client-side root
// lived in the workload's process, so the earliest server-side top span
// stands in as the root.
func runTraceByID(r *rig, idStr string) error {
	id64, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(idStr, "0x"), "0X"), 16, 64)
	if err != nil {
		return fmt.Errorf("bad -id %q (want a hex trace ID): %v", idStr, err)
	}
	tid := trace.TraceID(id64)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var spans []trace.Span
	for i, c := range r.Clients {
		if c == nil {
			continue
		}
		sp, err := c.TraceSpans(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "raidxctl: warning: node %d spans: %v\n", i, err)
			continue
		}
		for _, s := range sp {
			if s.Trace == tid {
				s.Origin = fmt.Sprintf("n%d", i)
				spans = append(spans, s)
			}
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %016x not found in any node's span ring (rings are bounded — recent traces only)", id64)
	}
	root := spans[0]
	for _, s := range spans {
		if s.Top != root.Top {
			if s.Top {
				root = s
			}
			continue
		}
		if s.Start.Before(root.Start) {
			root = s
		}
	}
	trace.WriteWaterfall(os.Stdout, trace.Trace{ID: tid, Root: root, Spans: spans})
	return nil
}
