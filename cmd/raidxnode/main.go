// Command raidxnode runs one cooperative-disk-driver storage node: it
// exports a set of disks over the CDD wire protocol so remote clients
// can assemble distributed arrays across nodes. With several raidxnode
// processes (one per host, or per port on one host) and a client using
// the raidx package, the serverless cluster of the paper runs for real
// over TCP.
//
//	raidxnode -addr :7000 -disks 1 -blocks 4096 -bs 32768
//
// With -http the node additionally serves its observability surfaces:
//
//	raidxnode -addr :7000 -http :7080
//	curl http://localhost:7080/stats          # obs registry as JSON
//	curl http://localhost:7080/metrics        # Prometheus text format
//	curl http://localhost:7080/trace?n=5      # recent + slow traces, JSON
//	go tool pprof http://localhost:7080/debug/pprof/profile
//
// -pprof writes a CPU profile of the whole run to a file (stopped and
// flushed on shutdown), for profiling without the HTTP listener.
//
// With -repair-cluster the node also runs the self-healing repair
// supervisor over the whole array (run it on exactly one node — the
// repair host). The host mounts the cluster as a client, watches member
// health, swaps local hot spares for members that stay dead past the
// failure budget, rebuilds them in the background, and delta-resyncs
// members that return after a blip. Its write-intent log is replicated
// to every node through the CDD protocol, so a restarted host recovers
// the dirty map from any survivor:
//
//	raidxnode -addr :7000 -repair-cluster :7000,:7001,:7002,:7003 \
//	          -repair-spares 1 -repair-budget 5s
//	curl http://localhost:7080/repair         # supervisor status, JSON
//	raidxctl repair status -addrs :7000,...   # same, over the CDD wire
//
// Disks are in-memory by default (this reproduction's substitute for
// the Trojans cluster's SCSI drives); with -dir they become persistent
// file-backed images that survive restarts.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"repro/internal/node"
)

func main() {
	var cfg node.Config
	cfg.RegisterFlags(flag.CommandLine)
	pprofOut := flag.String("pprof", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			log.Fatalf("raidxnode: -pprof: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("raidxnode: -pprof: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("raidxnode: -pprof: %v", err)
			}
			log.Printf("raidxnode: CPU profile written to %s", *pprofOut)
		}()
	}

	// Signals are caught before Start: the node answers on the wire (the
	// repair host's supervisor included) before Start returns, and a
	// SIGTERM arriving in that window must still shut it down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	n, err := node.Start(cfg)
	if err != nil {
		log.Fatalf("raidxnode: %v", err)
	}
	<-sig
	log.Printf("raidxnode %s: shutting down", cfg.Name)
	// A crash skips Close; that is exactly what the images' unclean flag
	// records.
	if err := n.Close(); err != nil {
		log.Printf("raidxnode: close: %v", err)
	}
}
