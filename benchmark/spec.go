package main

import (
	"sort"
	"strings"
)

// metricDef is one end-to-end metric: its unit, which way is better,
// and the bound — the share of the baseline median by which it may get
// worse before -compare calls it a regression. floor is an absolute
// allowance for metrics whose baseline is too small for a share to mean
// anything.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" | "lower"
	bound  float64
	floor  float64
}

// universalMetrics are reported by every workload, in every run; they
// are the end_to_end list of BENCHMARK.json, which wants each of its
// metrics from each workload and never zero.
//
// The bounds of the times and rates are the widest BENCHMARK.json allows,
// not the issue's 10 %. Its driver accepts a benchmark only if ten
// unchanged runs of a workload spread (inter-quartile range over median)
// by less than the bound, and asks for a third of it; on this machine
// they spread by 2 to 8 % in a quiet half hour and by more in a disturbed
// one (README, "Bounds"). peak_rss_mib spreads by under 3 % and keeps the
// 10 %. -compare uses the same numbers, so there is one yardstick; it
// prints both spreads and says "unresolved" when either is wider than the
// bound. A finer claim needs paired runs, as the choosing-metrics guide
// describes.
var universalMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.2},
	{name: "write_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "read_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.10},
}

// cpuPerGiB is measured on every workload but is in result files and
// -compare only. Both vCPUs are busy in every workload, so it is close
// to 2 ÷ throughput and adds little the rates do not show, and it is the
// metric disturbance inflates most (the same instructions cost more CPU
// seconds when the host is busy): over ten unchanged runs it spread by up
// to 33 %, more than any bound BENCHMARK.json allows.
var cpuPerGiB = metricDef{name: "cpu_s_per_gib", unit: "s/GiB", better: "lower", bound: 0.25}

// tailMetrics are the latency percentiles. Between two run sets of one
// commit they disagreed by more than a tenth (a p99 by 14 to 26 %, the
// sub-microsecond p50 of a cache hit by 16 to 40 %), so by the issue's
// rule they are per-layer metrics "tail.<workload>.<name>", reported for
// the tailWorkloads and not bounded.
var (
	tailMetrics   = []string{"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"}
	tailWorkloads = map[string]bool{"mirror_large": true, "mirror_small": true, "session_cache": true}
)

// extraMetrics are end-to-end metrics only some workloads have. They are
// in result files and -compare, bounded like the rest, but cannot be in
// BENCHMARK.json: a metric there must come from every workload, and
// mirror_small has no degraded read or rebuild to report. fs_cycle_s is
// bounded there all the same, as ops_per_s: a cycle is a fixed number of
// calls. failed_ops_frac travels as the contract line's failed/attempted.
var extraMetrics = map[string][]metricDef{
	"rs_degraded": {
		{name: "degraded_read_mbps", unit: "MB/s", better: "higher", bound: 0.25},
		{name: "rebuild_mbps", unit: "MB/s", better: "higher", bound: 0.25},
	},
	"fs_andrew": {
		{name: "fs_cycle_s", unit: "s", better: "lower", bound: 0.25},
	},
}

// failedOpsFrac may not increase at all.
var failedOpsFrac = metricDef{name: "failed_ops_frac", unit: "ratio", better: "lower", bound: 0}

// metricsOf lists the end-to-end metrics of a workload, in report order.
func metricsOf(workload string) []metricDef {
	out := append([]metricDef(nil), universalMetrics...)
	out = append(out, cpuPerGiB)
	out = append(out, extraMetrics[workload]...)
	return append(out, failedOpsFrac)
}

// perLayerNamesOf lists the per-layer metrics one workload's traced run
// produces, by their full names.
func perLayerNamesOf(def workloadDef) []string {
	workload := def.name
	short := []string{
		"cdd.dev_wait_us_per_op", "cdd.dev_calls_per_op", "cdd.server_us_per_op",
		"transport.wire_us_per_op",
		"disk.write_bytes_per_user_byte", "disk.read_bytes_per_user_byte",
		"runtime.allocs_per_op", "overhead_pct",
	}
	if def.engine == "" {
		short = append(short,
			"cdd.session.hit_ratio", "cdd.session.evictions_per_op", "cdd.session.wb_blocks_per_flush",
			"cdd.session.remote_reads_per_op", "cdd.session.remote_writes_per_op")
	} else {
		short = append(short, def.engine+".self_us_per_op", "cdd.straggler_ratio")
	}
	switch workload {
	case "fs_andrew":
		short = append(short, "fsim.self_us_per_op", "fsim.array_calls_per_op", "fsim.array_bytes_per_user_byte")
		for _, p := range fsReportedPhases {
			short = append(short, "fsim.phase_"+p+"_s")
		}
	case "rs_degraded":
		short = append(short, "raid.degraded_read_mbps", "raid.rebuild_mbps")
	}
	var names []string
	for _, n := range short {
		names = append(names, "trace."+workload+"."+n)
	}
	if tailWorkloads[workload] {
		for _, n := range tailMetrics {
			names = append(names, "tail."+workload+"."+n)
		}
	}
	sort.Strings(names)
	return names
}

// fsReportedPhases are the cycle phases with a per-layer metric of their
// own. MakeDir and ScanDir are about 3 ms and 1 ms of a 270 ms cycle;
// their two names went to the tail metrics to stay within 128.
var fsReportedPhases = []string{"copy", "readall", "remove"}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".ns"):
		return "ns"
	case strings.HasSuffix(name, "_us_per_op"), strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_mbps"):
		return "MB/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_user_byte"):
		return "ratio"
	}
	return "count" // allocs, calls per op, blocks per flush
}

// betterOf says which way a per-layer metric improves.
func betterOf(name string) string {
	if strings.HasSuffix(name, "_mbps") || strings.HasSuffix(name, "hit_ratio") || strings.HasSuffix(name, "wb_blocks_per_flush") {
		return "higher"
	}
	return "lower"
}
