package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/andrew"
	"repro/internal/bench"
	"repro/internal/chkpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/reliab"
	"repro/internal/workload"
)

func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	n := fs.Int("n", 12, "disks in the array")
	b := fs.Float64("B", 10, "per-disk bandwidth (MB/s)")
	m := fs.Int64("m", 64, "file length (blocks)")
	rms := fs.Float64("R", 13, "single-block read time (ms)")
	wms := fs.Float64("W", 13, "single-block write time (ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := analytic.Inputs{
		N: *n, B: *b, M: *m,
		R: time.Duration(*rms * float64(time.Millisecond)),
		W: time.Duration(*wms * float64(time.Millisecond)),
	}
	rows := analytic.Table2(in)
	fmt.Printf("Table 2 — expected peak performance (n=%d, B=%.0f MB/s, m=%d blocks, R=%v, W=%v)\n\n",
		in.N, in.B, in.M, in.R, in.W)
	fmt.Printf("%-16s", "metric")
	for _, r := range rows {
		fmt.Printf(" %-22s", r.Arch)
	}
	fmt.Println()
	for _, metric := range []string{"read-bw", "large-write-bw", "small-write-bw", "large-read", "small-read", "large-write", "small-write"} {
		fmt.Printf("%-16s", metric)
		for _, r := range rows {
			var val string
			switch metric {
			case "read-bw":
				val = fmt.Sprintf("%.0f MB/s", r.ReadBW)
			case "large-write-bw":
				val = fmt.Sprintf("%.0f MB/s", r.LargeWriteBW)
			case "small-write-bw":
				val = fmt.Sprintf("%.0f MB/s", r.SmallWriteBW)
			case "large-read":
				val = r.LargeRead.Round(100 * time.Microsecond).String()
			case "small-read":
				val = r.SmallRead.String()
			case "large-write":
				val = r.LargeWrite.Round(100 * time.Microsecond).String()
			case "small-write":
				val = r.SmallWrite.String()
			}
			fmt.Printf(" %-10s=%-11s", r.Formulas[metric], val)
		}
		fmt.Println()
	}
	fmt.Println("\nfault coverage:")
	for _, r := range rows {
		fmt.Printf("  %-8s %s\n", r.Arch, r.FaultCoverage)
	}
	fmt.Printf("\nRAID-x : RAID-5 small-write advantage (model): %.1fx\n", analytic.SmallWriteAdvantage(in))
	fmt.Printf("RAID-x : chained large-write improvement (model, -> 2 for large n): %.2fx\n", analytic.ChainedWriteImprovement(in))
	return nil
}

func runFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	p := clusterFlags(fs)
	clientsFlag := fs.String("clients", "1,2,4,6,8,10,12", "client counts")
	systemsFlag := fs.String("systems", "paper", "systems (paper|all|csv)")
	mb := fs.Int("filemb", 2, "large file size per client (MB)")
	smallOps := fs.Int("smallops", 16, "small accesses per client")
	verbose := fs.Bool("verbose", false, "print the bottleneck resource of each cell")
	csvPath := fs.String("csv", "", "also write results as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clients, err := parseInts(*clientsFlag)
	if err != nil {
		return err
	}
	systems, err := parseSystems(*systemsFlag)
	if err != nil {
		return err
	}
	cfg := bench.Config{LargeBytes: *mb << 20, SmallOps: *smallOps}
	var csvRows []string
	for _, pattern := range bench.Patterns() {
		fmt.Printf("\nFigure 5 (%s) — aggregate bandwidth (MB/s) on %dx%d cluster\n", pattern, p.Nodes, p.DisksPerNode)
		fmt.Printf("%-10s", "clients")
		for _, m := range clients {
			fmt.Printf(" %8d", m)
		}
		fmt.Println()
		for _, sys := range systems {
			fmt.Printf("%-10s", sys)
			var hot []string
			for _, m := range clients {
				r, err := bench.Bandwidth(*p, sys, pattern, m, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s/%d: %w", sys, pattern, m, err)
				}
				fmt.Printf(" %8.2f", r.MBps)
				hot = append(hot, fmt.Sprintf("%s@%.0f%%", r.Bottleneck, r.BottleneckUtil*100))
				csvRows = append(csvRows, fmt.Sprintf("%s,%s,%d,%.3f", pattern, sys, m, r.MBps))
			}
			fmt.Println()
			if *verbose {
				fmt.Printf("%10s bottleneck: %v\n", "", hot)
			}
		}
	}
	if *csvPath != "" {
		out := "pattern,system,clients,mbps\n" + strings.Join(csvRows, "\n") + "\n"
		if err := os.WriteFile(*csvPath, []byte(out), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nCSV written to %s\n", *csvPath)
	}
	return nil
}

func runTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	p := clusterFlags(fs)
	clients := fs.Int("clients", 12, "many-client count")
	systemsFlag := fs.String("systems", "paper", "systems (paper|all|csv)")
	mb := fs.Int("filemb", 2, "large file size per client (MB)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	systems, err := parseSystems(*systemsFlag)
	if err != nil {
		return err
	}
	cfg := bench.Config{LargeBytes: *mb << 20, SmallOps: 16}
	rows, err := bench.Table3(*p, systems, *clients, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Table 3 — achievable bandwidth and improvement factor (%d clients)\n\n", *clients)
	fmt.Printf("%-10s %-12s %12s %12s %10s\n", "system", "operation", "1 client", fmt.Sprintf("%d clients", *clients), "improve")
	for _, r := range rows {
		fmt.Printf("%-10s %-12s %9.2f MB/s %9.2f MB/s %9.2fx\n",
			r.System, r.Pattern, r.OneClient, r.ManyClients, r.Improvement)
	}
	return nil
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	p := clusterFlags(fs)
	clientsFlag := fs.String("clients", "1,4,8,16,24,32", "client counts")
	systemsFlag := fs.String("systems", "paper", "systems (paper|all|csv)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clients, err := parseInts(*clientsFlag)
	if err != nil {
		return err
	}
	systems, err := parseSystems(*systemsFlag)
	if err != nil {
		return err
	}
	cfg := andrew.DefaultConfig()
	for _, sys := range systems {
		fmt.Printf("\nFigure 6 (%s) — Andrew benchmark elapsed time (s)\n", sys)
		fmt.Printf("%-10s %8s %8s %8s %8s %8s %9s\n", "clients", "MakeDir", "Copy", "ScanDir", "ReadAll", "Make", "total")
		for _, m := range clients {
			r, err := bench.RunAndrew(*p, sys, m, cfg)
			if err != nil {
				return fmt.Errorf("%s/%d: %w", sys, m, err)
			}
			fmt.Printf("%-10d %8.2f %8.2f %8.2f %8.2f %8.2f %9.2f\n", m,
				r.Phase["MakeDir"].Seconds(), r.Phase["Copy"].Seconds(), r.Phase["ScanDir"].Seconds(),
				r.Phase["ReadAll"].Seconds(), r.Phase["Make"].Seconds(), r.Total.Seconds())
		}
	}
	return nil
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	p := clusterFlags(fs)
	procs := fs.Int("procs", 12, "checkpointing processes")
	slots := fs.Int("slots", 3, "staggering depth (slots)")
	mb := fs.Int("imagemb", 2, "checkpoint image size (MB)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := chkpt.Config{Processes: *procs, ImageBytes: *mb << 20, Slots: *slots, LocalImages: true}
	rs, err := bench.Figure7(*p, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 7 — coordinated checkpointing, %d processes, %d MB images, %d slots\n", *procs, *mb, *slots)
	fmt.Println("(C = per-process checkpoint overhead, S = synchronization overhead)")
	for _, r := range rs {
		fmt.Println(" ", r)
		if len(r.SlotEnds) > 0 {
			fmt.Print("    slot timeline:")
			for i, e := range r.SlotEnds {
				fmt.Printf(" slot%d@%.0fms", i, e.Seconds()*1e3)
			}
			fmt.Println()
		}
	}
	transient, permanent, err := bench.RecoveryComparison(*p, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nTwo-level recovery of one %d MB checkpoint (one data disk failed):\n", *mb)
	fmt.Printf("  transient (local mirror images, no network): %v\n", transient.Round(time.Millisecond))
	fmt.Printf("  permanent (striped read, degraded):          %v\n", permanent.Round(time.Millisecond))
	return nil
}

func runSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	p := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.DefaultConfig()
	clients := p.Nodes

	get := func(sys bench.System, pat bench.Pattern) float64 {
		r, err := bench.Bandwidth(*p, sys, pat, clients, cfg)
		if err != nil {
			panic(err)
		}
		return r.MBps
	}
	fmt.Printf("Section 7 headline claims, measured on the %d-node simulated cluster:\n\n", p.Nodes)
	xr, r5r, nr := get(bench.RAIDx, bench.LargeRead), get(bench.RAID5, bench.LargeRead), get(bench.NFS, bench.LargeRead)
	fmt.Printf("parallel reads, %d clients: raidx %.1f MB/s = %.2fx raid5 (paper ~1.5x), %.2fx nfs (paper ~3.7x)\n",
		clients, xr, xr/r5r, xr/nr)
	xw, r5w := get(bench.RAIDx, bench.SmallWrite), get(bench.RAID5, bench.SmallWrite)
	fmt.Printf("small writes,  %d clients: raidx %.1f MB/s = %.2fx raid5 (paper ~3x)\n", clients, xw, xw/r5w)

	acfg := andrew.DefaultConfig()
	ax, err := bench.RunAndrew(*p, bench.RAIDx, clients, acfg)
	if err != nil {
		return err
	}
	a5, err := bench.RunAndrew(*p, bench.RAID5, clients, acfg)
	if err != nil {
		return err
	}
	a10, err := bench.RunAndrew(*p, bench.RAID10, clients, acfg)
	if err != nil {
		return err
	}
	fmt.Printf("Andrew, %d clients: raidx %.0fs vs raid5 %.0fs (%.0f%% faster; paper 7-27%%), vs raid10 %.0fs (%.0f%% faster)\n",
		clients, ax.Total.Seconds(), a5.Total.Seconds(), 100*(1-ax.Total.Seconds()/a5.Total.Seconds()),
		a10.Total.Seconds(), 100*(1-ax.Total.Seconds()/a10.Total.Seconds()))
	return nil
}

func runAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	p := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.DefaultConfig()
	clients := p.Nodes

	fmt.Println("Ablation 1 — background vs foreground mirror writes (large write, MB/s):")
	for _, opt := range []struct {
		name string
		o    core.Options
	}{
		{"background (paper)", core.Options{}},
		{"foreground", core.Options{ForegroundMirror: true}},
	} {
		r, err := bench.BandwidthOpt(*p, bench.RAIDx, bench.LargeWrite, clients, cfg, opt.o)
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s %7.2f MB/s\n", opt.name, r.MBps)
	}

	fmt.Println("\nAblation 2 — gathered mirror groups vs per-block images")
	fmt.Println("(large write; client-visible MB/s and time-to-full-redundancy MB/s):")
	flushCfg := cfg
	flushCfg.FlushTimed = true
	for _, opt := range []struct {
		name string
		o    core.Options
	}{
		{"gathered (paper)", core.Options{}},
		{"scattered", core.Options{ScatterMirror: true}},
		{"scattered+foreground", core.Options{ScatterMirror: true, ForegroundMirror: true}},
	} {
		r, err := bench.BandwidthOpt(*p, bench.RAIDx, bench.LargeWrite, clients, cfg, opt.o)
		if err != nil {
			return err
		}
		rf, err := bench.BandwidthOpt(*p, bench.RAIDx, bench.LargeWrite, clients, flushCfg, opt.o)
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s %7.2f MB/s visible, %7.2f MB/s to-redundancy\n", opt.name, r.MBps, rf.MBps)
	}

	fmt.Println("\nAblation 3 — parallelism n vs pipelining k at fixed n*k=12 disks (large write, MB/s):")
	for _, geo := range []struct{ n, k int }{{12, 1}, {6, 2}, {4, 3}, {3, 4}, {2, 6}} {
		pp := *p
		pp.Nodes, pp.DisksPerNode = geo.n, geo.k
		r, err := bench.Bandwidth(pp, bench.RAIDx, bench.LargeWrite, geo.n, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %2dx%d  %7.2f MB/s (%d clients)\n", geo.n, geo.k, r.MBps, geo.n)
	}

	fmt.Println("\nAblation 4 — staggering depth (striped-staggered checkpoint, 12 procs, 2MB images):")
	for _, slots := range []int{1, 2, 3, 4, 6, 12} {
		ccfg := chkpt.Config{Processes: 12, ImageBytes: 2 << 20, Slots: slots, LocalImages: true}
		r, err := bench.RunCheckpoint(*p, chkpt.StripedStaggered, ccfg)
		if err != nil {
			return err
		}
		fmt.Printf("  slots=%-2d makespan=%7.1fms  C(max)=%7.1fms  S(max)=%7.1fms\n",
			slots, r.Makespan.Seconds()*1e3, r.MaxWrite.Seconds()*1e3, r.MaxSync.Seconds()*1e3)
	}

	fmt.Println("\nAblation 5 — lock-group granularity (Andrew Copy phase, RAID-x,")
	fmt.Printf("%d clients; FS allocation groups = independent lock groups):\n", clients)
	for _, groups := range []int{1, 4, 16} {
		acfg := andrew.DefaultConfig()
		r, err := bench.RunAndrewOpts(*p, bench.RAIDx, clients, acfg, bench.AndrewOpts{FSGroups: groups})
		if err != nil {
			return err
		}
		fmt.Printf("  groups=%-3d total=%7.1fs  copy=%6.1fs\n", groups, r.Total.Seconds(), r.Phase["Copy"].Seconds())
	}

	fmt.Println("\nAblation 6 — load-balanced reads (Section 7 extension; small reads")
	fmt.Println("while half the cluster streams large writes):")
	for _, opt := range []struct {
		name string
		o    core.Options
	}{
		{"primary-only", core.Options{}},
		{"balanced", core.Options{BalanceReads: true}},
	} {
		r, err := bench.MixedReadWrite(*p, opt.o, clients/2, clients/2, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %-14s reader bandwidth %6.2f MB/s (read makespan %v)\n",
			opt.name, r.ReadMBps, r.ReadMakespan.Round(time.Millisecond))
	}
	return nil
}

func runReliability(args []string) error {
	fs := flag.NewFlagSet("reliability", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "cluster nodes (n)")
	disks := fs.Int("disks", 3, "disks per node (k)")
	mttfH := fs.Float64("mttf", 10000, "per-disk mean time to failure (hours)")
	mttrH := fs.Float64("mttr", 10, "rebuild/repair time (hours)")
	trials := fs.Int("trials", 300, "Monte Carlo trials")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mttf := time.Duration(*mttfH * float64(time.Hour))
	mttr := time.Duration(*mttrH * float64(time.Hour))
	fmt.Printf("Reliability (Table 2 fault coverage, quantified): %dx%d array,\n", *nodes, *disks)
	fmt.Printf("disk MTTF %.0fh, rebuild %.0fh, %d Monte Carlo trials over exact fatal-pair sets\n\n",
		*mttfH, *mttrH, *trials)
	for _, r := range reliab.Compare(*nodes, *disks, 256, mttf, mttr, *trials) {
		fmt.Println(" ", r)
	}
	fmt.Println("\nSame-node disk pairs are never fatal for RAID-x (orthogonality), so")
	fmt.Println("deeper n-by-k arrays tolerate whole-node failures that flat mirroring cannot.")
	return nil
}

func runTxn(args []string) error {
	fs := flag.NewFlagSet("txn", flag.ExitOnError)
	p := clusterFlags(fs)
	clients := fs.Int("clients", 12, "concurrent clients")
	mix := fs.String("mix", "oltp", "workload mix: oltp | mining")
	ops := fs.Int("ops", 64, "operations per client")
	systemsFlag := fs.String("systems", "paper", "systems (paper|all|csv)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	systems, err := parseSystems(*systemsFlag)
	if err != nil {
		return err
	}
	workingSet := p.DiskBlocks * int64(p.Nodes*p.DisksPerNode) / 4
	var cfg workload.Config
	switch *mix {
	case "oltp":
		cfg = workload.OLTP(workingSet)
	case "mining":
		cfg = workload.Mining(workingSet)
	default:
		return fmt.Errorf("unknown mix %q", *mix)
	}
	cfg.Ops = *ops
	fmt.Printf("Transactional mixed workload (%s: %.0f%% reads, skew %.1f, <=%d-block ops),\n",
		*mix, cfg.ReadFraction*100, cfg.HotSkew, cfg.MaxOpBlocks)
	fmt.Printf("%d clients x %d ops over a shared %d-block working set:\n\n", *clients, cfg.Ops, cfg.WorkingSetBlocks)
	for _, sys := range systems {
		r, err := bench.Transactions(*p, sys, *clients, cfg)
		if err != nil {
			return err
		}
		fmt.Println(" ", r)
	}
	return nil
}

func runDegraded(args []string) error {
	fs := flag.NewFlagSet("degraded", flag.ExitOnError)
	p := clusterFlags(fs)
	clients := fs.Int("clients", 8, "concurrent reader clients")
	systemsFlag := fs.String("systems", "raid5,raid10,chained,raidx", "systems (csv)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	systems, err := parseSystems(*systemsFlag)
	if err != nil {
		return err
	}
	cfg := bench.Config{LargeBytes: 2 << 20, SmallOps: 16}
	fmt.Printf("Degraded-mode performance: %d clients reading 2 MB files; large-read MB/s\n", *clients)
	fmt.Printf("%-10s %10s %10s %12s %14s\n", "system", "normal", "degraded", "rebuilding", "rebuild time")
	for _, sys := range systems {
		rs, err := bench.DegradedSweep(*p, sys, *clients, cfg)
		if err != nil {
			return err
		}
		byState := map[bench.ArrayState]bench.DegradedResult{}
		for _, r := range rs {
			byState[r.State] = r
		}
		fmt.Printf("%-10s %10.2f %10.2f %12.2f %14v\n", sys,
			byState[bench.StateNormal].MBps,
			byState[bench.StateDegraded].MBps,
			byState[bench.StateRebuilding].MBps,
			byState[bench.StateRebuilding].RebuildTime.Round(time.Millisecond))
	}
	return nil
}

// runAll sequences every experiment at moderate scale — one command to
// regenerate the whole evaluation (redirect to a file for a report).
func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("# RAID-x reproduction — full experiment run")
	fmt.Println()
	steps := []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"Table 2 (analytic)", runTable2, nil},
		{"Figure 5 (bandwidth)", runFig5, []string{"-clients", "1,4,8,12"}},
		{"Table 3 (improvement)", runTable3, nil},
		{"Figure 6 (Andrew)", runFig6, []string{"-clients", "1,8,16,32"}},
		{"Figure 7 (checkpointing)", runFig7, nil},
		{"Headline summary", runSummary, nil},
		{"Degraded / rebuild", runDegraded, nil},
		{"Transactions (OLTP)", runTxn, []string{"-clients", "12"}},
		{"Reliability (MTTDL)", runReliability, nil},
		{"Ablations", runAblate, nil},
	}
	for _, s := range steps {
		fmt.Printf("\n## %s\n\n", s.name)
		if err := s.run(s.args); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// runScaleSim sweeps the simulated cluster size — the paper's closing
// claim that the design is "highly scalable with distributed control"
// and its plan for "an enlarged prototype of several hundreds of
// disks".
func runScaleSim(args []string) error {
	fs := flag.NewFlagSet("scale-sim", flag.ExitOnError)
	nodesFlag := fs.String("sizes", "12,24,48,96", "cluster sizes (nodes, 1 disk each)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseInts(*nodesFlag)
	if err != nil {
		return err
	}
	cfg := bench.Config{LargeBytes: 2 << 20, SmallOps: 16}
	fmt.Println("Scalability sweep — RAID-x aggregate large-write bandwidth, clients = nodes:")
	fmt.Printf("%-8s %12s %14s %12s\n", "nodes", "MB/s", "per-node MB/s", "bottleneck")
	for _, n := range sizes {
		p := cluster.DefaultParams()
		p.Nodes = n
		r, err := bench.Bandwidth(p, bench.RAIDx, bench.LargeWrite, n, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12.2f %14.2f %12s\n", n, r.MBps, r.MBps/float64(n),
			fmt.Sprintf("%s@%.0f%%", r.Bottleneck, r.BottleneckUtil*100))
	}
	return nil
}
