package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdicts of -compare, per workload and end-to-end metric.
const (
	vOK         = "ok"
	vRegressed  = "regressed"
	vUnresolved = "unresolved" // an inter-quartile range wider than the bound: the runs cannot tell
)

func readResult(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != schemaVersion {
		return rf, fmt.Errorf("%s: schema %d, this program reads schema %d", path, rf.Schema, schemaVersion)
	}
	return rf, nil
}

// settingsDiff lists the recorded settings in which a and b differ.
// blocking names those that make the numbers incomparable: a different
// machine, runtime, parallelism or run plan. Commit and seed may
// differ — comparing commits is the point, and a claim must hold on a
// second seed.
func settingsDiff(a, b resultFile) (notes, blocking []string) {
	add := func(blocks bool, name string, x, y any) {
		if x == y {
			return
		}
		s := fmt.Sprintf("%s: %v vs %v", name, x, y)
		notes = append(notes, s)
		if blocks {
			blocking = append(blocking, s)
		}
	}
	add(false, "commit", a.Commit, b.Commit)
	add(false, "seed", a.Seed, b.Seed)
	add(false, "hostname", a.Host.Hostname, b.Host.Hostname)
	add(true, "cpu", a.Host.CPU, b.Host.CPU)
	add(true, "nproc", a.Host.NProc, b.Host.NProc)
	add(true, "gomaxprocs", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	add(true, "go_version", a.Host.GoVersion, b.Host.GoVersion)
	add(true, "os_arch", a.Host.OSArch, b.Host.OSArch)
	add(true, "clients", a.Clients, b.Clients)
	add(true, "slice_ms", a.SliceMS, b.SliceMS)
	add(true, "rounds", a.Rounds, b.Rounds)
	add(true, "round_seconds", a.RoundSeconds, b.RoundSeconds)
	return notes, blocking
}

// judge compares one metric of the baseline a with the candidate b.
// worse is how much worse b's median is, as a share of a's (negative
// when better).
func judge(md metricDef, a, b summary) (worse float64, verdict string) {
	diff := b.Median - a.Median
	if md.better == "higher" {
		diff = -diff
	}
	if a.Median != 0 {
		worse = diff / math.Abs(a.Median)
	} else if diff > 0 {
		worse = math.Inf(1)
	}
	if md.bound == 0 { // failed_ops_frac: any increase
		if diff > 0 {
			return worse, vRegressed
		}
		return worse, vOK
	}
	wide := func(s summary) bool { return s.spread() > md.bound && s.Q3-s.Q1 > md.floor }
	if wide(a) || wide(b) {
		return worse, vUnresolved
	}
	if worse > md.bound && diff > md.floor {
		return worse, vRegressed
	}
	return worse, vOK
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, both inter-quartile ranges, the relative difference and the
// verdict. Exit code 1 on any regression (a higher failed_ops_frac is
// one), 2 when the files cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 2, err
	}
	notes, blocking := settingsDiff(a, b)
	for _, n := range notes {
		fmt.Fprintln(w, "differs:", n)
	}
	if len(blocking) > 0 {
		return 2, fmt.Errorf("the files are not comparable: %v", blocking)
	}
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %12s %12s %9s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "worse by", "verdict")
	counts := map[string]int{}
	for _, def := range workloads {
		wa, okA := a.Workloads[def.name]
		wb, okB := b.Workloads[def.name]
		if !okA && !okB {
			continue
		}
		if okA != okB {
			return 2, fmt.Errorf("workload %s is in only one of the files", def.name)
		}
		for _, md := range metricsOf(def.name) {
			sa, okA := wa.EndToEnd[md.name]
			sb, okB := wb.EndToEnd[md.name]
			if !okA || !okB {
				return 2, fmt.Errorf("%s: metric %s is missing from a file", def.name, md.name)
			}
			worse, verdict := judge(md, sa, sb)
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-20s %12.6g %12.4g %12.6g %12.4g %+8.1f%%  %s\n",
				def.name, md.name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1, 100*worse, verdict)
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[vOK], counts[vRegressed], counts[vUnresolved])
	if counts[vRegressed] > 0 {
		return 1, nil
	}
	return 0, nil
}
