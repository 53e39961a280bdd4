package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
)

// diskRow aggregates the per-disk gauges of one node snapshot.
type diskRow struct {
	reads, writes, bytesRead, bytesWritten int64
	seqHits, backlogUS, bgBacklogUS        int64
	healthy                                int64
}

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
		printCounters(snap)
		renderVolumes(os.Stdout, snap, "  ")
		printDisks(snap)
		printHistograms(snap)
		printEvents(snap, nEvents)
	}
	return nil
}

func printCounters(snap obs.Snapshot) {
	keys := obs.SortedKeys(snap.Counters)
	if len(keys) == 0 {
		return
	}
	fmt.Println("  counters:")
	for _, k := range keys {
		fmt.Printf("    %-24s %12d\n", k, snap.Counters[k])
	}
}

// printDisks folds the "disk.<id>.<field>" gauges into one table row
// per disk.
func printDisks(snap obs.Snapshot) {
	rows := map[string]*diskRow{}
	for name, v := range snap.Gauges {
		rest, ok := strings.CutPrefix(name, "disk.")
		if !ok {
			continue
		}
		i := strings.LastIndex(rest, ".")
		if i < 0 {
			continue
		}
		id, field := rest[:i], rest[i+1:]
		row := rows[id]
		if row == nil {
			row = &diskRow{}
			rows[id] = row
		}
		switch field {
		case "reads":
			row.reads = v
		case "writes":
			row.writes = v
		case "bytes_read":
			row.bytesRead = v
		case "bytes_written":
			row.bytesWritten = v
		case "seq_hits":
			row.seqHits = v
		case "backlog_us":
			row.backlogUS = v
		case "bg_backlog_us":
			row.bgBacklogUS = v
		case "healthy":
			row.healthy = v
		}
	}
	if len(rows) == 0 {
		return
	}
	fmt.Println("  disks:")
	fmt.Printf("    %-12s %8s %8s %9s %9s %6s %10s %10s %8s\n",
		"disk", "reads", "writes", "MB read", "MB writ", "seq%", "backlog", "bg-backlog", "state")
	for _, id := range obs.SortedKeys(rows) {
		row := rows[id]
		ops := row.reads + row.writes
		seqPct := 0.0
		if ops > 0 {
			seqPct = 100 * float64(row.seqHits) / float64(ops)
		}
		state := "healthy"
		if row.healthy == 0 {
			state = "FAILED"
		}
		fmt.Printf("    %-12s %8d %8d %9d %9d %5.1f%% %10s %10s %8s\n",
			id, row.reads, row.writes, row.bytesRead>>20, row.bytesWritten>>20, seqPct,
			time.Duration(row.backlogUS)*time.Microsecond,
			time.Duration(row.bgBacklogUS)*time.Microsecond, state)
	}
}

func printHistograms(snap obs.Snapshot) {
	keys := obs.SortedKeys(snap.Histograms)
	if len(keys) == 0 {
		return
	}
	fmt.Println("  latency:")
	fmt.Printf("    %-24s %10s %10s %10s %10s %10s\n", "histogram", "count", "p50", "p95", "p99", "max")
	for _, k := range keys {
		h := snap.Histograms[k]
		fmt.Printf("    %-24s %10d %10s %10s %10s %10s\n",
			k, h.Count, h.P50.Round(time.Microsecond), h.P95.Round(time.Microsecond),
			h.P99.Round(time.Microsecond), h.Max.Round(time.Microsecond))
	}
}

func printEvents(snap obs.Snapshot, n int) {
	evs := snap.Events
	if len(evs) == 0 || n <= 0 {
		return
	}
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	fmt.Printf("  events (last %d):\n", len(evs))
	for _, e := range evs {
		detail := e.Detail
		if detail != "" {
			detail = ": " + detail
		}
		fmt.Printf("    %s  %-14s %s%s\n", e.Time.Format("15:04:05.000"), e.Kind, e.Subject, detail)
	}
}
