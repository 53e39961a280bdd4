// Command raidxbench regenerates every table and figure of the paper's
// evaluation section on the simulated Trojans cluster:
//
//	raidxbench table2   — analytic expected peak performance (Table 2)
//	raidxbench fig5     — aggregate I/O bandwidth vs clients (Figure 5)
//	raidxbench table3   — 1-vs-N client bandwidth + improvement (Table 3)
//	raidxbench fig6     — Andrew benchmark elapsed times (Figure 6)
//	raidxbench fig7     — striped/staggered checkpointing (Figure 7)
//	raidxbench summary  — the Section 7 headline claims, measured
//	raidxbench ablate   — design-choice ablations (DESIGN.md Section 5)
//
// All runs are deterministic; -nodes/-disks/-clients scale the sweep.
//
// The global -pprof flag (before the command) writes a CPU profile of
// the whole run: raidxbench -pprof bench.prof fig5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
)

func main() {
	// Global flags come before the command word (per-command FlagSets
	// own everything after it).
	global := flag.NewFlagSet("raidxbench", flag.ExitOnError)
	global.Usage = usage
	pprofOut := global.String("pprof", "", "write a CPU profile of the whole run to this file")
	global.Parse(os.Args[1:])
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	stopProf := func() {}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			log.Fatalf("raidxbench: -pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("raidxbench: -pprof: %v", err)
		}
		stopProf = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("raidxbench: -pprof: %v", err)
			}
			fmt.Fprintf(os.Stderr, "raidxbench: CPU profile written to %s\n", *pprofOut)
		}
	}
	cmd, args := global.Arg(0), global.Args()[1:]
	var err error
	switch cmd {
	case "scale-sim":
		err = runScaleSim(args)
	case "all":
		err = runAll(args)
	case "table2":
		err = runTable2(args)
	case "fig5":
		err = runFig5(args)
	case "table3":
		err = runTable3(args)
	case "fig6":
		err = runFig6(args)
	case "fig7":
		err = runFig7(args)
	case "summary":
		err = runSummary(args)
	case "degraded":
		err = runDegraded(args)
	case "txn":
		err = runTxn(args)
	case "reliability":
		err = runReliability(args)
	case "ablate":
		err = runAblate(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "raidxbench: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "raidxbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: raidxbench <all|scale-sim|table2|fig5|table3|fig6|fig7|summary|txn|degraded|reliability|ablate> [flags]
Run 'raidxbench <cmd> -h' for per-command flags.
Global flag (before the command): -pprof <file>.`)
}

// clusterFlags registers the shared testbed flags.
func clusterFlags(fs *flag.FlagSet) *cluster.Params {
	p := cluster.DefaultParams()
	fs.IntVar(&p.Nodes, "nodes", p.Nodes, "cluster nodes")
	fs.IntVar(&p.DisksPerNode, "disks", p.DisksPerNode, "disks per node")
	fs.Int64Var(&p.DiskBlocks, "diskblocks", p.DiskBlocks, "blocks per disk")
	fs.IntVar(&p.BlockSize, "bs", p.BlockSize, "block size (bytes)")
	return &p
}

// parseInts parses "1,2,4" lists.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseSystems parses "nfs,raid5,..." lists.
func parseSystems(s string) ([]bench.System, error) {
	if s == "all" {
		return bench.AllSystems(), nil
	}
	if s == "paper" {
		return bench.PaperSystems(), nil
	}
	known := map[string]bool{}
	for _, sys := range bench.AllSystems() {
		known[string(sys)] = true
	}
	var out []bench.System
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if !known[f] {
			return nil, fmt.Errorf("unknown system %q", f)
		}
		out = append(out, bench.System(f))
	}
	return out, nil
}
