// Package raidx is the public API of the RAID-x reproduction: a
// distributed disk array for I/O-centric cluster computing built on
// orthogonal striping and mirroring (OSM), after Hwang, Jin & Ho,
// "RAID-x: A New Distributed Disk Array for I/O-Centric Cluster
// Computing" (HPDC 2000).
//
// The package re-exports the building blocks:
//
//   - Array engines: RAID-x (the paper's contribution) and its OSM
//     address map, plus the RAID-0, RAID-5, RAID-10, and
//     chained-declustering baselines, all over the same Dev
//     block-device interface; CopyArray moves a volume from one to
//     another (the paper's reconfiguration).
//   - The erasure-coded tier: rs(k,m) stripes, AFRAID, the raw
//     Reed-Solomon code and XOR kernel, and per-volume-policy pools.
//   - Devices: in-memory disks with a calibrated timing model, remote
//     disks served by cooperative disk drivers over TCP (retry policy,
//     lock groups, coherent cached sessions, the mount path),
//     simulated cluster device views for deterministic experiments, and
//     byte-addressed access to any array.
//   - A block file system (with CDD lock-group consistency and fsck)
//     and the Andrew benchmark that drives it.
//   - Striped/staggered coordinated checkpointing.
//   - The benchmark harness that regenerates every table and figure of
//     the paper's evaluation: its systems and access patterns, the NFS
//     baseline, the OLTP and mining mixes, and the MTTDL comparison.
//
// Options wires a tracer, an intent log and a metrics registry into the
// RAID-x engine, so those are exported too. The node runtime that
// internal/node assembles (hot spares and the repair supervisor, the
// SLO loop, the QoS pacer) is not.
//
// Quick start (see examples/quickstart):
//
//	devs := raidx.NewMemDevs(4, 4096, 32<<10) // 4 disks x 4096 blocks x 32 KB
//	arr, err := raidx.NewRAIDx(devs, 4, 1, raidx.Options{})
//	arr.WriteBlocks(ctx, 0, data)
package raidx

import (
	"context"
	"fmt"
	"time"

	"repro/internal/andrew"
	"repro/internal/bench"
	"repro/internal/cdd"
	"repro/internal/chkpt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fsim"
	"repro/internal/intent"
	"repro/internal/layout"
	"repro/internal/mount"
	"repro/internal/nfssim"
	"repro/internal/obs"
	"repro/internal/parity"
	"repro/internal/raid"
	"repro/internal/reliab"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/vol"
	"repro/internal/workload"
)

// Core array types.
type (
	// Array is the logical block device every engine exposes.
	Array = raid.Array
	// Dev is the block device interface engines consume.
	Dev = raid.Dev
	// Rebuilder is implemented by arrays that can reconstruct a
	// replaced disk.
	Rebuilder = raid.Rebuilder
	// Verifier is implemented by arrays that can check redundancy.
	Verifier = raid.Verifier
	// Options tunes the RAID-x engine (ablations).
	Options = core.Options
	// RAIDx is the OSM array engine.
	RAIDx = core.RAIDx
	// OSM is the orthogonal striping and mirroring address map.
	OSM = layout.OSM
)

// ErrDataLoss reports unrecoverable data (too many failures).
var ErrDataLoss = raid.ErrDataLoss

// DiskModel is the disk timing model.
type DiskModel = disk.Model

// Disk is a simulated or in-memory disk.
type Disk = disk.Disk

// NewRAIDx builds the paper's array: an n-by-k OSM grid over devs
// (devs[j] is global disk j, on node j mod nodes).
func NewRAIDx(devs []Dev, nodes, disksPerNode int, opt Options) (*RAIDx, error) {
	return core.New(devs, nodes, disksPerNode, opt)
}

// NewRAID0 builds a striping-only baseline array.
func NewRAID0(devs []Dev) (Array, error) { return raid.NewRAID0(devs) }

// NewRAID5 builds a rotated-parity baseline array.
func NewRAID5(devs []Dev) (Array, error) { return raid.NewRAID5(devs) }

// NewRAID10 builds a striped-mirror baseline array.
func NewRAID10(devs []Dev) (Array, error) { return raid.NewRAID10(devs) }

// NewChained builds a chained-declustering baseline array.
func NewChained(devs []Dev) (Array, error) { return raid.NewChained(devs) }

// NewOSM exposes the OSM address arithmetic directly.
func NewOSM(nodes, disksPerNode int, diskBlocks int64) OSM {
	return layout.NewOSM(nodes, disksPerNode, diskBlocks)
}

// NewMemDisk creates one in-memory disk with no timing (pure data).
func NewMemDisk(id string, blockSize int, blocks int64) *Disk {
	return disk.New(nil, id, store.NewMem(blockSize, blocks), disk.DefaultModel())
}

// NewMemDevs creates n in-memory disks ready to back any engine.
func NewMemDevs(n int, blocks int64, blockSize int) []Dev {
	devs := make([]Dev, n)
	for i := range devs {
		devs[i] = NewMemDisk(fmt.Sprintf("d%d", i), blockSize, blocks)
	}
	return devs
}

// Cluster simulation.
type (
	// ClusterParams describes the simulated testbed.
	ClusterParams = cluster.Params
	// Cluster is the simulated testbed.
	Cluster = cluster.Cluster
)

// TrojansParams returns the calibration of the paper's 12-node USC
// Trojans cluster (one SCSI disk per node, switched Fast Ethernet).
func TrojansParams() ClusterParams { return cluster.DefaultParams() }

// NewSimCluster builds a simulated cluster on a fresh virtual clock.
func NewSimCluster(p ClusterParams) *Cluster { return cluster.New(p) }

// WithProc attaches a simulated process to a context so storage
// operations charge virtual time.
func WithProc(ctx context.Context, p *vclock.Proc) context.Context {
	return vclock.With(ctx, p)
}

// Cooperative disk drivers over TCP.
type (
	// Node is a CDD storage node (manager + transport server).
	Node = cdd.Node
	// NodeClient is a CDD client connection to a remote node.
	NodeClient = cdd.NodeClient
	// RemoteDev is a remote disk masquerading as a local device.
	RemoteDev = cdd.RemoteDev
	// LockRange is a lock-group table range.
	LockRange = cdd.Range
	// LockTable is the consistency module's lock-group table.
	LockTable = cdd.Table
	// LockMode selects shared or exclusive lock-group grants.
	LockMode = cdd.Mode
	// Session is a coherent client session: lock-group grants, a
	// grant-guarded read cache, and group-commit write-back.
	Session = cdd.Session
	// SessionConfig tunes a session's cache, write-back, and heartbeat.
	SessionConfig = cdd.SessionConfig
	// CachedDev is a session's coherently cached view of a remote disk.
	CachedDev = cdd.CachedDev
)

// Lock-group grant modes.
const (
	// LockShared grants concurrent read access to a lock group.
	LockShared = cdd.Shared
	// LockExclusive grants sole read/write access to a lock group.
	LockExclusive = cdd.Exclusive
)

// ErrStaleLease reports a write-back flush refused because the
// session's lease safety window closed: the dirty batch is held until
// a heartbeat renews the lease or confirms it lost.
var ErrStaleLease = cdd.ErrStaleLease

// NewSession opens a coherent session on a connected node. The owner
// string identifies the client in the server's lock-group table.
func NewSession(c *NodeClient, owner string, cfg SessionConfig) *Session {
	return cdd.NewSession(c, owner, cfg)
}

// BlockLockRange maps a block extent of one disk to its lock-group
// table range.
func BlockLockRange(disk uint32, block, count int64) LockRange {
	return cdd.BlockLockRange(disk, block, count)
}

// ListenAndServe starts a CDD node exporting disks on addr.
func ListenAndServe(addr string, disks []*Disk) (*Node, error) {
	return cdd.ListenAndServe(addr, disks)
}

// Connect dials a CDD node with default retry/deadline policy.
func Connect(addr string) (*NodeClient, error) { return cdd.Connect(addr) }

// Attach connects to a live cluster given its node addresses in node
// order — the one mount path the binaries use (internal/mount). The
// returned cluster tolerates nodes that are down, builds engines at the
// layout epoch the nodes enforce (Engine), and reruns an operation on a
// rebuilt engine when the cluster rebalances underneath it (Run).
func Attach(addrs []string) (*mount.Cluster, error) { return mount.Connect(addrs) }

// Fault tolerance: retry policy and custom dialers.
type (
	// RetryPolicy tunes per-call deadlines, the retry budget, backoff,
	// and the suspect-node heartbeat interval.
	RetryPolicy = cdd.RetryPolicy
	// ConnectOptions configure a CDD client connection.
	ConnectOptions = cdd.Options
	// DialFunc lets callers interpose on connection establishment.
	DialFunc = transport.DialFunc
)

// ConnectWith dials a CDD node with explicit options; ctx bounds the
// dial and the initial handshake.
func ConnectWith(ctx context.Context, addr string, opts ConnectOptions) (*NodeClient, error) {
	return cdd.ConnectWith(ctx, addr, opts)
}

// DefaultRetryPolicy returns the production retry/deadline defaults.
func DefaultRetryPolicy() RetryPolicy { return cdd.DefaultRetryPolicy() }

// NewLockTable creates an empty lock-group table.
func NewLockTable() *LockTable { return cdd.NewTable() }

// File system.
type (
	// FS is a mounted file system.
	FS = fsim.FS
	// File is an open file handle.
	File = fsim.File
	// FSOptions configure Mkfs.
	FSOptions = fsim.Options
	// Locker is the FS consistency service.
	Locker = fsim.Locker
)

// Mkfs formats an array and mounts it.
func Mkfs(ctx context.Context, arr Array, lk Locker, owner string, opts FSOptions) (*FS, error) {
	return fsim.Mkfs(ctx, arr, lk, owner, opts)
}

// Mount opens an existing volume.
func Mount(ctx context.Context, arr Array, lk Locker, owner string) (*FS, error) {
	return fsim.Mount(ctx, arr, lk, owner)
}

// NewTableLocker adapts a lock table to the FS Locker interface.
func NewTableLocker(t *LockTable) *fsim.TableLocker { return fsim.NewTableLocker(t) }

// Workloads and experiments.
type (
	// AndrewConfig sizes the Andrew benchmark.
	AndrewConfig = andrew.Config
	// CheckpointConfig shapes a coordinated checkpoint round.
	CheckpointConfig = chkpt.Config
	// CheckpointScheme selects a checkpointing discipline.
	CheckpointScheme = chkpt.Scheme
	// BenchSystem names an I/O subsystem under test.
	BenchSystem = bench.System
	// BenchPattern is a Figure 5 access pattern.
	BenchPattern = bench.Pattern
)

// NFSServer is the centralized-server baseline.
type NFSServer = nfssim.Server

// NewNFSServer creates the NFS-like central server on a cluster node.
func NewNFSServer(c *Cluster, node int) (*NFSServer, error) {
	return nfssim.NewServer(c, node)
}

// Request tracing (Options.Trace wires a Tracer into the engine; CDD
// nodes carry their own, reachable via NodeClient.TraceSpans).
type (
	// Tracer records sampled per-request spans into a fixed ring.
	Tracer = trace.Tracer
	// TraceConfig sizes a Tracer (ring, sampling, slow log).
	TraceConfig = trace.Config
)

// NewTracer creates a Tracer; zero cfg fields take the defaults.
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// Byte-granular access and integrity tooling.

// ByteDevice adapts any Array to byte-addressed I/O with
// read-modify-write at block edges.
type ByteDevice = raid.ByteDevice

// NewByteDevice wraps an array for byte-granular access.
func NewByteDevice(arr Array) *ByteDevice { return raid.NewByteDevice(arr) }

// FsckReport summarizes a file-system consistency check.
type FsckReport = fsim.FsckReport

// Workload generation and reliability analysis.
type (
	// WorkloadConfig shapes a synthetic transactional mix.
	WorkloadConfig = workload.Config
	// ReliabilityRow is one architecture's MTTDL summary.
	ReliabilityRow = reliab.Row
)

// OLTPWorkload returns an e-commerce-like mix over the working set.
func OLTPWorkload(workingSetBlocks int64) WorkloadConfig { return workload.OLTP(workingSetBlocks) }

// MiningWorkload returns a data-mining-like mix.
func MiningWorkload(workingSetBlocks int64) WorkloadConfig { return workload.Mining(workingSetBlocks) }

// MetricsRegistry holds a process's counters, gauges, histograms, and
// labeled instrument families (Options.Obs wires one into the engine).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty instrument registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// CompareReliability builds the MTTDL table for an n-by-k cluster.
func CompareReliability(nodes, disksPerNode int, diskBlocks int64, mttf, mttr time.Duration, trials int) []ReliabilityRow {
	return reliab.Compare(nodes, disksPerNode, diskBlocks, mttf, mttr, trials)
}

// NewAFRAID builds the lazily-redundant RAID-5 variant (Savage &
// Wilkes), a design-space baseline the paper cites.
func NewAFRAID(devs []Dev) (*raid.Stripe, error) { return raid.NewAFRAID(devs) }

// Parity kernels and the erasure-coded tier (DESIGN.md section 15).
type (
	// RSArray is the parity-striped engine: k data + m parity shards
	// per stripe over k+m devices, tolerating any m simultaneous
	// failures. RAID-5 and AFRAID are its m = 1 parameterisations.
	RSArray = raid.Stripe
	// RSCode is the raw GF(2^8) Reed-Solomon encoder the engine is
	// built on, usable standalone over caller-owned shard buffers.
	RSCode = parity.RS
	// VolumePool carves one shared set of devices into per-volume
	// windows, each volume running its own redundancy policy.
	VolumePool = vol.Pool
	// Volume is one policy-carrying array over a VolumePool.
	Volume = vol.Volume
	// VolumePolicy names a volume's redundancy scheme:
	// mirror | raid5 | rs(k,m).
	VolumePolicy = vol.Policy
)

// NewRS builds an erasure-coded array over len(devs) devices with m
// parity shards per stripe (k = len(devs)-m data shards).
func NewRS(devs []Dev, m int) (*RSArray, error) { return raid.NewRS(devs, m) }

// NewRSCode builds a systematic Reed-Solomon code with k data and m
// parity shards (k+m <= 255).
func NewRSCode(k, m int) (*RSCode, error) { return parity.NewRS(k, m) }

// NewVolumePool builds a per-volume-policy pool over shared devices;
// reg may be nil.
func NewVolumePool(devs []Dev, reg *MetricsRegistry) (*VolumePool, error) {
	return vol.NewPool(devs, reg)
}

// ParseVolumePolicy parses "mirror", "raid5", or "rs(k,m)".
func ParseVolumePolicy(s string) (VolumePolicy, error) { return vol.ParsePolicy(s) }

// XorParity xors src into dst (dst[i] ^= src[i]) with the compiled
// word/SIMD kernel — the primitive behind every parity scheme here.
func XorParity(dst, src []byte) { parity.XorInto(dst, src) }

// ParityKernelName identifies the compiled kernel path, e.g.
// "unsafe64+avx2".
func ParityKernelName() string { return parity.KernelName() }

// IntentLog is the per-device write-intent log: the engine marks a block
// missed when a copy misses a write, and reads and repairs route around
// it (Options.Intent wires one into the engine).
type IntentLog = intent.Log

// NewIntentLog creates a write-intent log covering devices members of
// deviceBlocks physical blocks each, snapshotted by regions of
// regionBlocks (<= 0 takes the default region size).
func NewIntentLog(devices int, deviceBlocks, regionBlocks int64) *IntentLog {
	return intent.NewLog(devices, deviceBlocks, regionBlocks)
}

// CopyArray migrates the contents of src onto dst (array
// reconfiguration, e.g. 4x3 -> 6x2 as in the paper's Section 6).
func CopyArray(ctx context.Context, dst, src Array) error { return raid.Copy(ctx, dst, src) }
