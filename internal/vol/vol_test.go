package vol_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/cdd"
	"repro/internal/disk"
	"repro/internal/fsim"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/store"
	"repro/internal/vol"
)

// mkPool builds a pool of n fresh in-memory disks with a registry, and
// hands back the raw disks so tests can fail/replace members.
func mkPool(t *testing.T, n int, bs int, blocks int64) (*vol.Pool, []*disk.Disk, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	devs := make([]raid.Dev, n)
	raw := make([]*disk.Disk, n)
	for i := range devs {
		d := disk.New(nil, "d"+string(rune('0'+i)), store.NewMem(bs, blocks), disk.DefaultModel())
		devs[i] = d
		raw[i] = d
	}
	p, err := vol.NewPool(devs, reg)
	if err != nil {
		t.Fatal(err)
	}
	return p, raw, reg
}

func fillPat(p []byte, seed byte) {
	for i := range p {
		p[i] = seed ^ byte(i*7)
	}
}

// TestPoolMixedPolicies is the acceptance-criteria drill: a mirrored
// hot volume and an rs(8,2) cold volume (plus a raid5 one) share the
// same ten spindles, each with independent data, capacity accounting,
// and redundancy behavior.
func TestPoolMixedPolicies(t *testing.T) {
	ctx := context.Background()
	p, raw, reg := mkPool(t, 10, 1024, 4096)

	hot, err := p.Create("hot", vol.Policy{Kind: "mirror"}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Create("cold", vol.Policy{Kind: "rs", K: 8, M: 2}, 512)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := p.Create("mid", vol.Policy{Kind: "raid5"}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FreePerDev(); got != 4096-1024-512-256 {
		t.Errorf("FreePerDev = %d, want %d", got, 4096-1024-512-256)
	}
	if len(p.Volumes()) != 3 {
		t.Fatalf("Volumes() = %d entries", len(p.Volumes()))
	}

	// Capacities reflect each policy's overhead over the same window
	// arithmetic: mirror keeps about half (OSM rounds the window down
	// to whole mirror groups), rs(8,2) keeps exactly 8/10.
	if lo, hi := int64(10*1024*45/100), int64(10*1024/2); hot.Blocks() < lo || hot.Blocks() > hi {
		t.Errorf("hot.Blocks() = %d, want within [%d,%d]", hot.Blocks(), lo, hi)
	}
	if cold.Blocks() != 512*8 {
		t.Errorf("cold.Blocks() = %d, want %d", cold.Blocks(), 512*8)
	}

	// Independent round trips: distinct patterns per volume, written
	// interleaved, must not bleed across windows.
	write := func(v *vol.Volume, seed byte, blocks int64) []byte {
		buf := make([]byte, blocks*int64(v.BlockSize()))
		fillPat(buf, seed)
		if err := v.WriteBlocks(ctx, 0, buf); err != nil {
			t.Fatalf("%s: write: %v", v.VolumeName(), err)
		}
		return buf
	}
	hotData := write(hot, 0x11, 64)
	coldData := write(cold, 0x22, 64)
	midData := write(mid, 0x33, 64)
	check := func(v *vol.Volume, want []byte) {
		got := make([]byte, len(want))
		if err := v.ReadBlocks(ctx, 0, got); err != nil {
			t.Fatalf("%s: read: %v", v.VolumeName(), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip mismatch", v.VolumeName())
		}
	}
	check(hot, hotData)
	check(cold, coldData)
	check(mid, midData)

	// One spindle dies: every volume sees it, every volume survives it
	// (mirror and raid5 tolerate 1, rs(8,2) tolerates 2), and each
	// volume's own degraded-read counter moves.
	raw[3].Fail()
	check(hot, hotData)
	check(cold, coldData)
	check(mid, midData)

	// The counter's unit is logical blocks served through redundancy,
	// whatever the policy: of each volume's blocks 0..63, those whose
	// home is device 3. Mirror stripes round-robin (3, 13, .. 63).
	// rs(8,2) puts shard j of stripe s on device (s+j) mod 10, which
	// is a data shard in 6 of stripes 0..7. raid5 puts shard j on
	// device (j-s) mod 10, a data shard in 7 of its stripes 0..7
	// (stripe 7 holds only block 63, on device 3).
	snap := reg.Snapshot()
	for name, want := range map[string]int64{"hot": 7, "cold": 6, "mid": 7} {
		key := obs.LabelName("vol.degraded_reads", "volume", name)
		if got := snap.Counters[key]; got != want {
			t.Errorf("degraded read counter %s = %d, want %d", key, got, want)
		}
	}

	// Labeled info/capacity gauges carry the policy per volume.
	wantGauges := map[string]int64{
		obs.LabelName("vol.info", "volume", "hot", "policy", "mirror"):   1,
		obs.LabelName("vol.info", "volume", "cold", "policy", "rs(8,2)"): 1,
		obs.LabelName("vol.info", "volume", "mid", "policy", "raid5"):    1,
		obs.LabelName("vol.blocks", "volume", "hot"):                     hot.Blocks(),
		obs.LabelName("vol.blocks", "volume", "cold"):                    512 * 8,
		obs.LabelName("vol.capacity_overhead_pct", "volume", "hot"):      100,
		obs.LabelName("vol.capacity_overhead_pct", "volume", "cold"):     25,
	}
	for key, want := range wantGauges {
		if got := snap.Gauges[key]; got != want {
			t.Errorf("gauge %s = %d, want %d", key, got, want)
		}
	}
}

// TestPoolFilesystems mounts a real filesystem on each of the two
// volumes — the README walkthrough in test form: one pool of disks,
// hot files on the mirror, cold files on the erasure-coded tier.
func TestPoolFilesystems(t *testing.T) {
	ctx := context.Background()
	p, raw, _ := mkPool(t, 10, 1024, 4096)
	hot, err := p.Create("hot", vol.Policy{Kind: "mirror"}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Create("cold", vol.Policy{Kind: "rs", K: 8, M: 2}, 512)
	if err != nil {
		t.Fatal(err)
	}

	hotFS, err := fsim.Mkfs(ctx, hot, fsim.NewTableLocker(cdd.NewTable()), "hot-client", fsim.Options{MaxInodes: 256})
	if err != nil {
		t.Fatalf("mkfs hot: %v", err)
	}
	coldFS, err := fsim.Mkfs(ctx, cold, fsim.NewTableLocker(cdd.NewTable()), "cold-client", fsim.Options{MaxInodes: 256})
	if err != nil {
		t.Fatalf("mkfs cold: %v", err)
	}
	hotBody := []byte(strings.Repeat("latency-sensitive ", 200))
	coldBody := []byte(strings.Repeat("capacity-optimized ", 400))
	if err := hotFS.WriteFile(ctx, "/scratch.dat", hotBody); err != nil {
		t.Fatal(err)
	}
	if err := coldFS.WriteFile(ctx, "/archive.dat", coldBody); err != nil {
		t.Fatal(err)
	}

	// Two spindles fail: the rs(8,2) tier still serves its file. The
	// mirror tier is checked before the second failure (it tolerates
	// one).
	raw[7].Fail()
	got, err := hotFS.ReadFile(ctx, "/scratch.dat")
	if err != nil || !bytes.Equal(got, hotBody) {
		t.Fatalf("hot file after 1 failure: err=%v, match=%v", err, bytes.Equal(got, hotBody))
	}
	raw[2].Fail()
	got, err = coldFS.ReadFile(ctx, "/archive.dat")
	if err != nil || !bytes.Equal(got, coldBody) {
		t.Fatalf("cold file after 2 failures: err=%v, match=%v", err, bytes.Equal(got, coldBody))
	}

	// Remount the cold tier degraded: superblock and metadata also
	// reconstruct through the kernel.
	coldFS2, err := fsim.Mount(ctx, cold, fsim.NewTableLocker(cdd.NewTable()), "cold-remount")
	if err != nil {
		t.Fatalf("degraded remount: %v", err)
	}
	got, err = coldFS2.ReadFile(ctx, "/archive.dat")
	if err != nil || !bytes.Equal(got, coldBody) {
		t.Fatalf("cold file via degraded remount: err=%v, match=%v", err, bytes.Equal(got, coldBody))
	}
}

func TestPoolErrors(t *testing.T) {
	p, _, _ := mkPool(t, 10, 1024, 256)
	if _, err := p.Create("", vol.Policy{Kind: "mirror"}, 32); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := p.Create("a", vol.Policy{Kind: "rs", K: 4, M: 2}, 32); err == nil {
		t.Error("rs(4,2) on a 10-wide pool accepted")
	}
	if _, err := p.Create("a", vol.Policy{Kind: "raid7"}, 32); err == nil {
		t.Error("unknown policy kind accepted")
	}
	if _, err := p.Create("a", vol.Policy{Kind: "mirror"}, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create("a", vol.Policy{Kind: "raid5"}, 32); err == nil {
		t.Error("duplicate volume name accepted")
	}
	if _, err := p.Create("b", vol.Policy{Kind: "raid5"}, 200); err == nil {
		t.Error("over-capacity volume accepted")
	}
	if _, err := p.Create("b", vol.Policy{Kind: "raid5"}, 128); err != nil {
		t.Errorf("exact-fit volume rejected: %v", err)
	}
	if p.FreePerDev() != 0 {
		t.Errorf("FreePerDev = %d after exact fill", p.FreePerDev())
	}
}

func TestParsePolicy(t *testing.T) {
	good := map[string]vol.Policy{
		"mirror":   {Kind: "mirror"},
		"raid5":    {Kind: "raid5"},
		"rs(8,2)":  {Kind: "rs", K: 8, M: 2},
		"rs(17,3)": {Kind: "rs", K: 17, M: 3},
	}
	for s, want := range good {
		got, err := vol.ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %+v, %v; want %+v", s, got, err, want)
		}
		if got.String() != s {
			t.Errorf("Policy.String() = %q, want %q", got.String(), s)
		}
	}
	for _, s := range []string{"", "raid6", "rs(0,2)", "rs(4,0)", "rs(4)", "rs(a,b)", "mirror2"} {
		if _, err := vol.ParsePolicy(s); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", s)
		}
	}
	if pct := (vol.Policy{Kind: "rs", K: 8, M: 2}).OverheadPct(10); pct != 25 {
		t.Errorf("rs(8,2) overhead = %v, want 25", pct)
	}
	if pct := (vol.Policy{Kind: "mirror"}).OverheadPct(10); pct != 100 {
		t.Errorf("mirror overhead = %v, want 100", pct)
	}
}
