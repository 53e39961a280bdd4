package raid_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

func byteDev(t *testing.T) *raid.ByteDevice {
	a, _ := raidtest.Build[raid.Array](t, raidtest.RAID0(4), raidtest.Disks{Blocks: 32})
	return raid.NewByteDevice(a)
}

func TestByteDeviceUnalignedRoundTrip(t *testing.T) {
	d := byteDev(t)
	ctx := context.Background()
	// Offsets and lengths deliberately misaligned with the 256 B block.
	data := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := d.WriteAt(ctx, data, 131); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if _, err := d.ReadAt(ctx, got, 131); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("unaligned round trip mismatch")
	}
}

func TestByteDevicePreservesNeighbours(t *testing.T) {
	d := byteDev(t)
	ctx := context.Background()
	base := make([]byte, 2048)
	for i := range base {
		base[i] = byte(i)
	}
	if _, err := d.WriteAt(ctx, base, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite a sliver in the middle of a block.
	if _, err := d.WriteAt(ctx, []byte("XYZ"), 700); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2048)
	if _, err := d.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	copy(base[700:], "XYZ")
	if !bytes.Equal(got, base) {
		t.Fatal("RMW clobbered neighbouring bytes")
	}
}

func TestByteDeviceEOF(t *testing.T) {
	d := byteDev(t)
	ctx := context.Background()
	size := d.Size()
	buf := make([]byte, 100)
	n, err := d.ReadAt(ctx, buf, size-40)
	if n != 40 || !errors.Is(err, io.EOF) {
		t.Fatalf("tail read: n=%d err=%v, want 40, EOF", n, err)
	}
	if _, err := d.ReadAt(ctx, buf, size); !errors.Is(err, io.EOF) {
		t.Fatalf("read at end: %v", err)
	}
	if _, err := d.WriteAt(ctx, buf, size-40); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, err := d.ReadAt(ctx, buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestByteDeviceShadow drives random unaligned writes against a flat
// reference buffer.
func TestByteDeviceShadow(t *testing.T) {
	d := byteDev(t)
	ctx := context.Background()
	shadow := make([]byte, d.Size())
	rng := rand.New(rand.NewSource(9))
	for op := 0; op < 300; op++ {
		off := rng.Int63n(d.Size() - 1)
		n := 1 + rng.Intn(900)
		if off+int64(n) > d.Size() {
			n = int(d.Size() - off)
		}
		if rng.Intn(2) == 0 {
			p := make([]byte, n)
			rng.Read(p)
			if _, err := d.WriteAt(ctx, p, off); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			copy(shadow[off:], p)
		} else {
			p := make([]byte, n)
			if _, err := d.ReadAt(ctx, p, off); err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("op %d read: %v", op, err)
			}
			if !bytes.Equal(p, shadow[off:off+int64(n)]) {
				t.Fatalf("op %d: read diverged at %d+%d", op, off, n)
			}
		}
	}
}

// TestCopyReconfigures4x3To6x2: the paper's Section 6 reconfiguration —
// migrate a 4x3 RAID-x onto a 6x2 RAID-x and verify contents and
// redundancy.
func TestCopyReconfigures4x3To6x2(t *testing.T) {
	ctx := context.Background()
	src, _ := raidtest.Build[raid.Array](t, raidtest.RAIDx(4, 3), disks64)
	sh := raidtest.Fill(t, src)
	dst, _ := raidtest.Build[raidtest.Array](t, raidtest.RAIDx(6, 2), disks64)
	if err := raid.Copy(ctx, dst, src); err != nil {
		t.Fatal(err)
	}
	sh.On(dst).Check(t, "reconfigured array")
	if err := dst.Verify(ctx); err != nil {
		t.Fatalf("verify after reconfiguration: %v", err)
	}
}

func TestCopyRejectsSmallDestination(t *testing.T) {
	src, _ := raidtest.Build[raid.Array](t, raidtest.RAID0(4), disks64)
	dst, _ := raidtest.Build[raid.Array](t, raidtest.RAID0(4), raidtest.Disks{Blocks: 16})
	if err := raid.Copy(context.Background(), dst, src); err == nil {
		t.Fatal("copy into smaller destination accepted")
	}
}
