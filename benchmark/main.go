// Command benchmark is this repository's yardstick: five closed-loop
// workloads over the real stack (engine → cdd client → transport over
// loopback TCP → cdd manager → disk over a memory store, wall clock), a
// per-layer ladder, and a traced run. See README.md in this directory.
//
//	go run ./benchmark                      # everything: rounds, ladder, traced run
//	go run ./benchmark -workload fs_andrew  # one workload
//	go run ./benchmark -ladder-only
//	go run ./benchmark -compare A.json B.json
//
// With -seconds it makes exactly one run and prints one JSON line, the
// form BENCHMARK.json's command is driven in:
//
//	go run ./benchmark -workload mirror_small -seed 7 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// sliceLen is the length of one timed slice. Every rate and percentile
// is computed per round (the i-th slice of each phase), and a run's value
// is the median over its rounds. A second is long enough that a slice
// holds whatever the program does periodically (a lease beat, a garbage
// collection, a write-back timer), so a stall that recurs is in every
// sample.
const sliceLen = time.Second

// options are the command line.
type options struct {
	workload   string
	seed       uint64
	out        string
	ladderOnly bool
	tracedOnly bool
	compare    bool
	secs       float64
	trace      int
	detail     string
	args       []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the operation generator")
	flag.StringVar(&o.out, "out", "", "result file (default benchmark/out/result-<time>.json)")
	flag.BoolVar(&o.ladderOnly, "ladder-only", false, "run only the per-layer ladder")
	flag.BoolVar(&o.tracedOnly, "traced-only", false, "run only the traced runs")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Float64Var(&o.secs, "seconds", 0, "single-run mode: measure one run for this many seconds and print one JSON line")
	flag.IntVar(&o.trace, "trace", 0, "single-run mode: 0 = end-to-end metrics of -workload, 1 = every per-layer metric")
	flag.StringVar(&o.detail, "detail", "", "single-run mode: also write the run's samples to this file (used by the run plan)")
	flag.Parse()
	o.args = flag.Args()
	code, err := dispatch(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func dispatch(o options) (int, error) {
	if o.compare {
		if len(o.args) != 2 {
			return 2, fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, o.args[0], o.args[1])
	}
	if len(o.args) != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", o.args)
	}
	if o.ladderOnly && o.tracedOnly {
		return 2, fmt.Errorf("-ladder-only and -traced-only exclude each other")
	}
	sel := workloads
	if o.workload != "" {
		def, ok := findWorkload(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
		}
		sel = []workloadDef{def}
	}
	clients := min(2, runtime.NumCPU())
	if o.secs > 0 {
		if o.workload == "" {
			return 2, fmt.Errorf("-seconds needs -workload")
		}
		return singleRun(sel[0], o.seed, clients, o.secs, o.trace, o.detail)
	}
	return runPlan(sel, o.seed, clients, o.out, o.ladderOnly, o.tracedOnly)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// contractLine is the one JSON object a single run prints last.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceWindowShare is the share of a -trace 1 run's seconds that one
// window gets: the run has to fit the same --seconds as a -trace 0 run,
// with the ladder and two windows (reference and traced) of each of the
// five workloads in it.
const traceWindowShare = 1.0 / 25

// singleRun is the form BENCHMARK.json drives: one run, one JSON line.
func singleRun(def workloadDef, seed uint64, clients int, secs float64, trace int, detail string) (int, error) {
	line := contractLine{Metrics: map[string]contractMetric{}}
	var unmeasured []string
	switch trace {
	case 0:
		res, err := runE2E(def, seed, clients, secs, sliceLen)
		if err != nil {
			return 1, err
		}
		if detail != "" {
			if err := writeJSON(detail, res); err != nil {
				return 1, err
			}
		}
		line.Attempted, line.Failed = res.Attempted, res.Failed
		for _, m := range universalMetrics {
			v, ok := res.Samples[m.name]
			if !ok {
				return 1, fmt.Errorf("%s produced no %s sample", def.name, m.name)
			}
			line.Metrics[m.name] = contractMetric{Value: median(v), Unit: m.unit}
		}
	case 1:
		pl, err := runPerLayer(workloads, seed, clients, secs*traceWindowShare, true, true, "")
		if err != nil {
			return 1, err
		}
		line.Attempted, line.Failed = pl.Attempted, pl.Failed
		line.Metrics, unmeasured = contractMetrics(pl.Metrics)
		for _, name := range unmeasured {
			fmt.Fprintf(os.Stderr, "benchmark: %s could not be measured\n", name)
		}
	default:
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	line.Correct = line.Failed == 0 && len(unmeasured) == 0
	b, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// contractMetrics turns per-layer values into the contract line's
// metrics. One whose counters the program no longer exports (NaN) is left
// out and named in unmeasured, which fails the run: a substitute value
// would read as a perfect score on a lower-is-better metric.
func contractMetrics(values map[string]float64) (metrics map[string]contractMetric, unmeasured []string) {
	metrics = map[string]contractMetric{}
	for name, v := range values {
		if math.IsNaN(v) {
			unmeasured = append(unmeasured, name)
			continue
		}
		metrics[name] = contractMetric{Value: v, Unit: unitOf(name)}
	}
	sort.Strings(unmeasured)
	return metrics, unmeasured
}

// perLayer is the ladder plus the traced runs, flattened to the
// per-layer metric names.
type perLayer struct {
	Metrics   map[string]float64
	Ladder    []rungResult
	Attempted int64
	Failed    int64
}

// runPerLayer runs the ladder and/or the traced run of each selected
// workload (windowSecs per window). traceDir, when set, receives the
// span files.
func runPerLayer(sel []workloadDef, seed uint64, clients int, windowSecs float64, ladder, traced bool, traceDir string) (perLayer, error) {
	pl := perLayer{Metrics: map[string]float64{}}
	if ladder {
		var acc account
		rungs, err := runLadder(ladderBatch, &acc)
		if err != nil {
			return pl, err
		}
		pl.Ladder = rungs
		for name, v := range ladderMetrics(rungs) {
			pl.Metrics[name] = v
		}
		pl.Attempted += acc.attempted
		pl.Failed += acc.failed
		settle()
	}
	if traced {
		for _, def := range sel {
			tr, err := runTraced(def, seed, clients, windowSecs, traceDir)
			if err != nil {
				return pl, err
			}
			for _, w := range tr.Warnings {
				fmt.Fprintln(os.Stderr, "benchmark: warning:", w)
			}
			for _, name := range perLayerNamesOf(def) {
				v, ok := tr.Metrics[name]
				if !ok {
					return pl, fmt.Errorf("traced run of %s did not produce %s", def.name, name)
				}
				pl.Metrics[name] = v
			}
			pl.Attempted += tr.Attempted
			pl.Failed += tr.Failed
			settle()
		}
	}
	return pl, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
