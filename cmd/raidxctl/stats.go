package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
)

// runStats fetches every node's observability registry and renders
// per-node operation counters, per-disk tables, latency histograms, and
// the most recent health events.
func runStats(fs *flag.FlagSet, r *rig) error {
	nEvents := atoi(fs.Lookup("events").Value.String())
	for node, c := range r.Clients {
		if node > 0 {
			fmt.Println()
		}
		if c == nil {
			fmt.Printf("node %d (%s): OFFLINE (unreachable)\n", node, r.Addrs[node])
			continue
		}
		snap, err := c.ObsSnapshot(context.Background())
		if err != nil {
			fmt.Printf("node %d (%s): stats unavailable: %v\n", node, c.Addr(), err)
			continue
		}
		fmt.Printf("node %d (%s):\n", node, c.Addr())
		renderStats(os.Stdout, snap, nEvents)
	}
	return nil
}

// renderStats is one node's body of `raidxctl stats`: counters,
// volumes, disks, latency histograms and the last nEvents events.
func renderStats(w io.Writer, snap obs.Snapshot, nEvents int) {
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "  counters:")
		t := newTable(w, "    ", -24, 12)
		for _, k := range obs.SortedKeys(snap.Counters) {
			t.row(k, snap.Counters[k])
		}
	}
	renderVolumes(w, snap, "  ")
	renderDisks(w, snap)
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "  latency:")
		t := newTable(w, "    ", -24, 10, 10, 10, 10, 10)
		t.row("histogram", "count", "p50", "p95", "p99", "max")
		for _, k := range obs.SortedKeys(snap.Histograms) {
			h := snap.Histograms[k]
			t.row(k, h.Count, us(h.P50), us(h.P95), us(h.P99), us(h.Max))
		}
	}
	evs := snap.Events
	if len(evs) == 0 || nEvents <= 0 {
		return
	}
	evs = evs[max(0, len(evs)-nEvents):]
	fmt.Fprintf(w, "  events (last %d):\n", len(evs))
	for _, e := range evs {
		detail := e.Detail
		if detail != "" {
			detail = ": " + detail
		}
		fmt.Fprintf(w, "    %s  %-14s %s%s\n", e.Time.Format("15:04:05.000"), e.Kind, e.Subject, detail)
	}
}

// renderDisks folds the "disk.<id>.<field>" gauges into one table row
// per disk.
func renderDisks(w io.Writer, snap obs.Snapshot) {
	disks := fold(nil, snap.Gauges, dotted("disk."))
	if len(disks) == 0 {
		return
	}
	fmt.Fprintln(w, "  disks:")
	t := newTable(w, "    ", -12, 8, 8, 9, 9, 6, 10, 10, 8)
	t.row("disk", "reads", "writes", "MB read", "MB writ", "seq%", "backlog", "bg-backlog", "state")
	for _, id := range obs.SortedKeys(disks) {
		d := disks[id]
		seq := 0.0
		if ops := d["reads"] + d["writes"]; ops > 0 {
			seq = 100 * float64(d["seq_hits"]) / float64(ops)
		}
		state := "healthy"
		if d["healthy"] == 0 {
			state = "FAILED"
		}
		t.row(id, d["reads"], d["writes"], d["bytes_read"]>>20, d["bytes_written"]>>20, fmt.Sprintf("%.1f%%", seq),
			time.Duration(d["backlog_us"])*time.Microsecond, time.Duration(d["bg_backlog_us"])*time.Microsecond, state)
	}
}

// diskBytes sums the per-disk byte gauges of snap.
func diskBytes(snap obs.Snapshot) (read, written int64) {
	for _, d := range fold(nil, snap.Gauges, dotted("disk.")) {
		read += d["bytes_read"]
		written += d["bytes_written"]
	}
	return read, written
}
