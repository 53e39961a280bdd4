package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The run plan. Each workload runs in its own child process (fresh
// heap, its own getrusage and VmHWM). One discarded warm-up round is
// followed by measured rounds interleaved across workloads (w1…w5,
// w1…w5, w1…w5): the first process after an idle spell runs measurably
// faster than every later one on this machine, and interleaving keeps a
// slow minute from landing on one workload alone.
const (
	planRounds    = 3
	roundSeconds  = 8.0 // measured per workload per round
	warmRoundSecs = 3.0 // the discarded round
	tracedSeconds = 4.0 // the traced run's window
	schemaVersion = 1
	outDir        = "benchmark/out"
)

// hostInfo is what two result files must share to be comparable.
type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

// workloadResult is one workload's end-to-end metrics: per metric the
// median over all slices of all measured processes, with both quartiles
// and the sample count (setup_s: every set-up; peak_rss_mib: one sample
// per process).
type workloadResult struct {
	EndToEnd  map[string]summary `json:"end_to_end"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

// resultFile is the one schema every number of this benchmark is
// recorded in.
type resultFile struct {
	Schema       int                       `json:"schema"`
	Time         string                    `json:"time"`
	Host         hostInfo                  `json:"host"`
	Commit       string                    `json:"commit"`
	Seed         uint64                    `json:"seed"`
	Clients      int                       `json:"clients"`
	SliceMS      int64                     `json:"slice_ms"`
	Rounds       int                       `json:"rounds"`
	RoundSeconds float64                   `json:"round_seconds"`
	Workloads    map[string]workloadResult `json:"workloads,omitempty"`
	Ladder       []rungResult              `json:"ladder,omitempty"`
	// PerLayer holds every ladder.* and trace.* metric by name; null
	// marks one the program no longer exports the counters for.
	PerLayer map[string]*float64 `json:"per_layer,omitempty"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID is `git rev-parse HEAD`, with -dirty when the tree has
// uncommitted changes, or "unknown" outside a git checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		id += "-dirty"
	}
	return id
}

func newResultFile(seed uint64, clients int) resultFile {
	host, _ := os.Hostname()
	return resultFile{
		Schema: schemaVersion,
		Time:   time.Now().UTC().Format(time.RFC3339),
		Host: hostInfo{
			Hostname:   host,
			CPU:        cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		},
		Commit:       commitID(),
		Seed:         seed,
		Clients:      clients,
		SliceMS:      sliceLen.Milliseconds(),
		Rounds:       planRounds,
		RoundSeconds: roundSeconds,
	}
}

// runChild runs one workload once in a fresh process of this same
// binary and returns its samples.
func runChild(exe string, def workloadDef, seed uint64, secs float64, detail string) (runResult, error) {
	cmd := exec.Command(exe,
		"-workload", def.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(secs), "-trace", "0", "-detail", detail)
	cmd.Stdout = io.Discard // the child's contract line; the detail file has more
	cmd.Stderr = os.Stderr
	var res runResult
	// Exit code 1 with a detail file means failed operations: those are
	// in the file and reported with everything else.
	runErr := cmd.Run()
	b, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s child: %w", def.name, runErr)
		}
		return res, err
	}
	os.Remove(detail)
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("%s child detail: %w", def.name, err)
	}
	return res, nil
}

// runPlan is the default command: rounds, ladder, traced runs, one
// table, one result file. It returns exit code 1 when any operation
// failed or any verification did not hold.
func runPlan(sel []workloadDef, seed uint64, clients int, outPath string, ladderOnly, tracedOnly bool) (int, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	rf := newResultFile(seed, clients)
	if outPath == "" {
		outPath = filepath.Join(outDir, "result-"+time.Now().UTC().Format("20060102-150405")+".json")
	}
	var failed int64

	if !ladderOnly && !tracedOnly {
		exe, err := os.Executable()
		if err != nil {
			return 1, err
		}
		detail := filepath.Join(outDir, fmt.Sprintf("child-%d.json", os.Getpid()))
		runs := map[string][]runResult{}
		for round := 0; round <= planRounds; round++ {
			for _, def := range sel {
				secs := roundSeconds
				if round == 0 {
					secs = warmRoundSecs
				}
				fmt.Fprintf(os.Stderr, "round %d/%d  %-14s %gs\n", round, planRounds, def.name, secs)
				res, err := runChild(exe, def, seed, secs, detail)
				if err != nil {
					return 1, err
				}
				if round == 0 {
					continue
				}
				runs[def.name] = append(runs[def.name], res)
			}
		}
		rf.Workloads = map[string]workloadResult{}
		for _, def := range sel {
			wr, err := summarizeRuns(def.name, runs[def.name])
			if err != nil {
				return 1, err
			}
			rf.Workloads[def.name] = wr
			failed += wr.Failed
		}
	}

	// -ladder-only and -traced-only each switch the other off (and the
	// rounds); with neither, both run.
	pl, err := runPerLayer(sel, seed, clients, tracedSeconds, !tracedOnly, !ladderOnly, outDir)
	if err != nil {
		return 1, err
	}
	rf.Ladder = pl.Ladder
	rf.PerLayer = map[string]*float64{}
	for name, v := range pl.Metrics {
		if math.IsNaN(v) {
			rf.PerLayer[name] = nil
			continue
		}
		rf.PerLayer[name] = &v
	}
	failed += pl.Failed

	printReport(os.Stdout, rf)
	if err := writeJSON(outPath, rf); err != nil {
		return 1, err
	}
	fmt.Printf("\nresult file: %s\n", outPath)
	if failed > 0 {
		return 1, fmt.Errorf("%d operations failed or did not verify", failed)
	}
	return 0, nil
}

// summarizeRuns pools the samples of one workload's measured processes.
func summarizeRuns(workload string, runs []runResult) (workloadResult, error) {
	wr := workloadResult{EndToEnd: map[string]summary{}}
	for _, r := range runs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
	}
	for _, md := range metricsOf(workload) {
		var all []float64
		for _, r := range runs {
			v, ok := r.Samples[md.name]
			if !ok {
				return wr, fmt.Errorf("%s produced no %s sample", workload, md.name)
			}
			all = append(all, v...)
		}
		wr.EndToEnd[md.name] = summarize(all)
	}
	return wr, nil
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, rf resultFile) {
	fmt.Fprintf(w, "host %s (%s, %d cpus, GOMAXPROCS %d, %s)  commit %s  seed %d  clients %d\n",
		rf.Host.Hostname, rf.Host.CPU, rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Commit, rf.Seed, rf.Clients)
	fmt.Fprintf(w, "slices of %d ms, %d processes of %g s per workload after one discarded process each\n", rf.SliceMS, rf.Rounds, rf.RoundSeconds)
	if len(rf.Workloads) > 0 {
		fmt.Fprintf(w, "\nEnd to end (tracing off): median and quartiles over the n slices of all measured processes\n")
		fmt.Fprintf(w, "%-14s %-20s %12s %12s %12s %4s  %s\n", "workload", "metric", "median", "q1", "q3", "n", "unit")
		for _, def := range workloads {
			wr, ok := rf.Workloads[def.name]
			if !ok {
				continue
			}
			for _, md := range metricsOf(def.name) {
				s := wr.EndToEnd[md.name]
				fmt.Fprintf(w, "%-14s %-20s %12.6g %12.6g %12.6g %4d  %s\n", def.name, md.name, s.Median, s.Q1, s.Q3, s.N, md.unit)
			}
			fmt.Fprintf(w, "%-14s %-20s %14d of %d attempted\n", def.name, "failed_ops", wr.Failed, wr.Attempted)
		}
	}
	if len(rf.Ladder) > 0 {
		fmt.Fprintf(w, "\nLadder: one goroutine, median of %d batches, ns/op\n", ladderBatches)
		fmt.Fprintf(w, "%-44s %14s %10s %16s  %s\n", "rung", "ns", "allocs", "delta_vs_lower", "lower")
		for _, r := range rf.Ladder {
			delta := ""
			if r.DeltaVsLower != nil {
				delta = fmt.Sprintf("%+.0f", *r.DeltaVsLower)
			}
			fmt.Fprintf(w, "%-44s %14.0f %10.1f %16s  %s\n", "ladder."+r.Name, r.NS, r.Allocs, delta, r.Lower)
		}
	}
	if len(rf.PerLayer) > 0 {
		fmt.Fprintf(w, "\nPer layer\n%-58s %16s  %s\n", "metric", "value", "unit")
		names := make([]string, 0, len(rf.PerLayer))
		for name := range rf.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := "null"
			if p := rf.PerLayer[name]; p != nil {
				v = fmt.Sprintf("%.6g", *p)
			}
			fmt.Fprintf(w, "%-58s %16s  %s\n", name, v, unitOf(name))
		}
	}
}
