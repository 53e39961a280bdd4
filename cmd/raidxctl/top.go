package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
// throughput and tail latency, session cache hit ratio, the background
// QoS rate, SLO burn state, repair state, and trace-ID
// exemplars that drill into `raidxctl trace -id`. Rates and windowed
// percentiles are derived from the delta between successive polls.
func runTop(fs *flag.FlagSet, r *rig) error {
	interval, _ := time.ParseDuration(fs.Lookup("interval").Value.String())
	if interval <= 0 {
		interval = time.Second
	}
	iters := atoi(fs.Lookup("n").Value.String())
	plain := fs.Lookup("plain").Value.String() == "true"

	var p poll
	var prevAt time.Time
	for i := 0; iters <= 0 || i < iters; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		p.prev = p.cur
		p.cur, p.perNode = pollCluster(r)
		now := time.Now()
		if !prevAt.IsZero() {
			p.dt = now.Sub(prevAt)
		}
		prevAt = now
		var out strings.Builder
		renderTop(&out, p, len(r.Addrs))
		if !plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		os.Stdout.WriteString(out.String())
	}
	return nil
}

// poll is one refresh of the dashboard.
type poll struct {
	cur, prev obs.Snapshot   // the merged cluster view, now and one interval ago
	perNode   []obs.Snapshot // what cur merges: one snapshot per node that answered
	dt        time.Duration  // since prev; 0 on the first poll, which has no rates
}

func (p poll) first() bool { return p.dt <= 0 }

// rate is delta per second of the interval (0 on the first poll).
func (p poll) rate(delta int64) float64 {
	if p.first() {
		return 0
	}
	return float64(delta) / p.dt.Seconds()
}

// window is the part of histogram cur observed since prev — all of it
// on the first poll, or when either side carries no raw buckets.
func (p poll) window(cur, prev obs.HistogramStats) obs.HistogramSnapshot {
	cs, ok := cur.Snapshot()
	if !ok || p.first() {
		return cs
	}
	ps, ok := prev.Snapshot()
	if !ok {
		return cs
	}
	return cs.Sub(ps)
}

// pollCluster fetches every reachable node's snapshot and their merge.
// The per-node snapshots serve readings where a sum is the wrong
// aggregation (SLO burn rates want the worst node).
func pollCluster(r *rig) (obs.Snapshot, []obs.Snapshot) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snaps := make([]obs.Snapshot, 0, len(r.Clients))
	for _, c := range r.Clients {
		if c == nil {
			continue
		}
		if snap, err := c.ObsSnapshot(ctx); err == nil {
			snaps = append(snaps, snap)
		}
	}
	return obs.MergeSnapshots(snaps...), snaps
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

// renderTop renders one poll; nodes is the length of the -addrs list.
func renderTop(w io.Writer, p poll, nodes int) {
	fmt.Fprintf(w, "raidxctl top — %s — %d/%d node(s) up", p.cur.Time.Format("15:04:05"), len(p.perNode), nodes)
	if p.first() {
		fmt.Fprintln(w, " — first poll (cumulative stats; rates need one interval)")
	} else {
		fmt.Fprintln(w)
		rd, wr := diskBytes(p.cur)
		prd, pwr := diskBytes(p.prev)
		fmt.Fprintf(w, "disk I/O: %.1f MB/s read, %.1f MB/s written\n", p.rate(rd-prd)/(1<<20), p.rate(wr-pwr)/(1<<20))
	}
	renderOps(w, p)
	renderCache(w, p.cur)
	renderVolumes(w, p.cur, "")
	renderQoS(w, p)
	renderSLO(w, p.perNode)
	renderRepair(w, p.cur)
	renderExemplars(w, p.cur)
}

// renderOps is the per-op table over the mgr.op_latency{op=...} family:
// windowed ops/s and windowed p50/p95/p99 per opcode, busiest first.
func renderOps(w io.Writer, p poll) {
	const family = "mgr.op_latency"
	byOp := labeled(family, "op")
	cur, prev := fold(nil, p.cur.Histograms, byOp), fold(nil, p.prev.Histograms, byOp)
	type opRow struct {
		op string
		s  obs.HistogramSnapshot
	}
	var rows []opRow
	for op, h := range cur {
		if s := p.window(h[family], prev[op][family]); s.Count > 0 {
			rows = append(rows, opRow{op, s})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s.Count > rows[j].s.Count })
	fmt.Fprintln(w, "ops (since last poll):")
	t := newTable(w, "  ", -14, 10, 10, 10, 10, 10)
	t.row("op", "count", "ops/s", "p50", "p95", "p99")
	for _, r := range rows {
		t.row(r.op, r.s.Count, fmtRate(p.rate(r.s.Count)), us(r.s.Percentile(50)), us(r.s.Percentile(95)), us(r.s.Percentile(99)))
	}
}

func renderCache(w io.Writer, cur obs.Snapshot) {
	hits, misses := cur.Counters["sess.cache_hits"], cur.Counters["sess.cache_misses"]
	if hits+misses == 0 {
		return
	}
	fmt.Fprintf(w, "session cache: %d hits / %d misses (%.1f%% hit ratio)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))
}

// renderQoS shows the live background QoS rate, summed over the nodes
// that pace one.
func renderQoS(w io.Writer, p poll) {
	if bg, ok := p.cur.Gauges["qos.bg_rate_bps"]; ok {
		fmt.Fprintf(w, "qos (cluster aggregate): bg rate %s\n", fmtBps(bg))
	}
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
func renderSLO(w io.Writer, perNode []obs.Snapshot) {
	worst := map[string]map[string]int64{}
	for _, snap := range perNode {
		for slo, g := range fold(nil, snap.Gauges, dotted("slo.")) {
			if _, ok := g["burning"]; !ok {
				continue
			}
			if worst[slo] == nil {
				worst[slo] = map[string]int64{}
			}
			for col, v := range g {
				worst[slo][col] = max(worst[slo][col], v)
			}
		}
	}
	if len(worst) == 0 {
		return
	}
	fmt.Fprintln(w, "slo (worst node):")
	t := newTable(w, "  ", -16, -8, 0)
	for _, slo := range obs.SortedKeys(worst) {
		g := worst[slo]
		state := "ok"
		if g["burning"] > 0 {
			state = "BURNING"
		}
		t.row(slo, state, fmt.Sprintf("burn fast %.2f slow %.2f", float64(g["fast_burn_milli"])/1000, float64(g["slow_burn_milli"])/1000))
	}
}

func renderRepair(w io.Writer, cur obs.Snapshot) {
	const family = "repair.dev_state"
	devs := fold(nil, cur.Gauges, labeled(family, "dev"))
	var busy []string
	for _, dev := range obs.SortedKeys(devs) {
		v := devs[dev][family]
		if v == 0 {
			continue
		}
		st := map[int64]string{1: "suspect", 2: "degraded", 3: "rebuilding", 4: "resyncing"}[v]
		if st == "" {
			st = strconv.FormatInt(v, 10)
		}
		busy = append(busy, "D"+dev+" "+st)
	}
	if len(busy) == 0 {
		if _, ok := cur.Gauges["repair.active"]; ok {
			fmt.Fprintln(w, "repair: all devices healthy")
		}
		return
	}
	paused := ""
	if cur.Gauges["repair.paused"] > 0 {
		paused = " [PAUSED]"
	}
	fmt.Fprintf(w, "repair%s: %s (resynced %d KB)\n", paused,
		strings.Join(busy, ", "), cur.Gauges["repair.resync_bytes"]>>10)
}

// renderExemplars surfaces the slowest recent traced observations so
// the operator can jump from a bad p99 straight to its trace.
func renderExemplars(w io.Writer, cur obs.Snapshot) {
	var hists []string
	for name, st := range cur.Histograms {
		if st.Exemplar != nil && st.Exemplar.TraceID != 0 {
			hists = append(hists, name)
		}
	}
	if len(hists) == 0 {
		return
	}
	ex := func(i int) *obs.Exemplar { return cur.Histograms[hists[i]].Exemplar }
	sort.Slice(hists, func(i, j int) bool { return ex(i).Dur > ex(j).Dur })
	fmt.Fprintln(w, "slow exemplars (drill in with raidxctl trace -id <trace> -addrs ...):")
	for i := range hists[:min(len(hists), 3)] {
		e := ex(i)
		age := time.Since(time.Unix(0, e.At)).Round(time.Second)
		fmt.Fprintf(w, "  %-28s %10s  trace %016x  (%s ago)\n", hists[i], us(e.Dur), e.TraceID, age)
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
	for i, sp := range nodeSpans(ctx, r) {
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
		if (s.Top && !root.Top) || (s.Top == root.Top && s.Start.Before(root.Start)) {
			root = s
		}
	}
	trace.WriteWaterfall(os.Stdout, trace.Trace{ID: tid, Root: root, Spans: spans})
	return nil
}
