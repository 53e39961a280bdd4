package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
)

// table writes aligned rows: each cell is printed at its column's width
// (negative left-aligns, 0 leaves the cell as it is), one space apart,
// after the indent.
type table struct {
	w      io.Writer
	indent string
	widths []int
}

func newTable(w io.Writer, indent string, widths ...int) table {
	return table{w: w, indent: indent, widths: widths}
}

func (t table) row(cells ...any) {
	var b strings.Builder
	b.WriteString(t.indent)
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%*v", t.widths[i], c)
	}
	b.WriteByte('\n')
	io.WriteString(t.w, b.String())
}

// fold groups the metrics of one snapshot map into table rows: split
// names the row a metric belongs to and its column there, or an empty
// row for a metric outside the table. rows may be nil.
func fold[V any](rows map[string]map[string]V, m map[string]V, split func(name string) (row, col string)) map[string]map[string]V {
	if rows == nil {
		rows = map[string]map[string]V{}
	}
	for name, v := range m {
		row, col := split(name)
		if row == "" {
			continue
		}
		if rows[row] == nil {
			rows[row] = map[string]V{}
		}
		rows[row][col] = v
	}
	return rows
}

// dotted splits "<prefix><row>.<col>" names, the shape of the per-disk
// ("disk.<id>.reads") and per-objective ("slo.<name>.burning") gauges.
func dotted(prefix string) func(string) (string, string) {
	return func(name string) (string, string) {
		rest, ok := strings.CutPrefix(name, prefix)
		i := strings.LastIndexByte(rest, '.')
		if !ok || i < 0 {
			return "", ""
		}
		return rest[:i], rest[i+1:]
	}
}

// labeled splits the members of the labeled families whose base name
// starts with prefix: the row is the value of label key, the column the
// base name.
func labeled(prefix, key string) func(string) (string, string) {
	return func(name string) (string, string) {
		base, _ := obs.SplitLabeled(name)
		if !strings.HasPrefix(base, prefix) {
			return "", ""
		}
		return obs.LabelValue(name, key), base
	}
}

// us rounds a latency for display.
func us(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// renderVolumes folds the vol.* labeled family into one row per
// volume: policy (from the vol.info info-gauge's labels), logical
// capacity, redundancy overhead, and the degraded-read counter the
// engines bump once per block served by reconstruction. Shown by both
// `raidxctl stats` (per node) and `raidxctl top` (cluster merge).
func renderVolumes(w io.Writer, snap obs.Snapshot, indent string) {
	byVolume := labeled("vol.", "volume")
	rows := fold(fold(nil, snap.Gauges, byVolume), snap.Counters, byVolume)
	if len(rows) == 0 {
		return
	}
	policy := map[string]string{}
	for name, v := range snap.Gauges {
		if base, _ := obs.SplitLabeled(name); base == "vol.info" && v != 0 {
			policy[obs.LabelValue(name, "volume")] = obs.LabelValue(name, "policy")
		}
	}
	fmt.Fprintf(w, "%svolumes:\n", indent)
	t := newTable(w, indent+"  ", -16, -10, 12, 10, 14)
	t.row("volume", "policy", "blocks", "overhead", "degraded-reads")
	for _, vol := range obs.SortedKeys(rows) {
		r := rows[vol]
		t.row(vol, policy[vol], r["vol.blocks"], fmt.Sprintf("%d%%", r["vol.capacity_overhead_pct"]), r["vol.degraded_reads"])
	}
}
