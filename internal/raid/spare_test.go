package raid_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/raid"
	"repro/internal/raid/raidtest"
)

// parkedDev holds its first write until release closes: a rebuild onto
// it stops at its first chunk.
type parkedDev struct {
	raid.Dev
	once    sync.Once
	release chan struct{}
}

func (d *parkedDev) WriteBlocks(ctx context.Context, b int64, p []byte) error {
	d.once.Do(func() { <-d.release })
	return d.Dev.WriteBlocks(ctx, b, p)
}

// TestRepairConcurrentFailover: two goroutines racing Failover for the
// same failed member must consume exactly one spare — the loser gets
// ErrRepairInFlight instead of swapping out the winner's fresh spare.
// The spare handed out first parks its rebuild until a Failover returns,
// so the two always overlap. Run under -race (the CI repair shard does).
func TestRepairConcurrentFailover(t *testing.T) {
	a, raw := raidtest.Build[raidtest.Array](t, raidtest.RAIDx(4, 1), disks64)
	spares, _ := disks64.Make(2)
	parked := &parkedDev{Dev: spares[1], release: make(chan struct{})}
	spares[1] = parked // the Sparer hands out its last spare first
	sp := raid.NewSparer(a, spares)
	ctx := context.Background()
	sh := raidtest.Fill(t, a)

	raw[2].Fail()
	errs := make([]error, 2)
	release := sync.OnceFunc(func() { close(parked.release) })
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sp.Failover(ctx, 2)
			release()
		}()
	}
	wg.Wait()
	var won, lost int
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case errors.Is(err, raid.ErrRepairInFlight):
			lost++
		default:
			t.Fatalf("unexpected failover error: %v", err)
		}
	}
	if won != 1 || lost != 1 {
		t.Fatalf("%d winners, %d in-flight rejections; want exactly one of each", won, lost)
	}
	if sp.SparesLeft() != 1 {
		t.Fatalf("%d spares left, want 1 (one failure must consume one spare)", sp.SparesLeft())
	}
	if len(sp.Retired()) != 1 {
		t.Fatalf("%d devices retired, want 1 (a fresh spare was swapped out)", len(sp.Retired()))
	}
	if sp.InFlight(2) {
		t.Fatal("slot still claimed after failover returned")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatalf("verify after racing failovers: %v", err)
	}
	sh.Check(t, "after racing failovers")
}

// TestRepairSwapReleaseClaims: the supervisor-facing Swap/Release pair
// holds the slot claim across an external rebuild: Failover for the
// same slot is rejected until Release, and an unrelated slot is not
// blocked.
func TestRepairSwapReleaseClaims(t *testing.T) {
	a, raw := raidtest.Build[raidtest.Array](t, raidtest.RAIDx(4, 1), disks64)
	spares, _ := disks64.Make(3)
	sp := raid.NewSparer(a, spares)
	ctx := context.Background()

	raw[1].Fail()
	if err := sp.Swap(1); err != nil {
		t.Fatal(err)
	}
	if !sp.InFlight(1) {
		t.Fatal("swap did not claim the slot")
	}
	if err := sp.Failover(ctx, 1); !errors.Is(err, raid.ErrRepairInFlight) {
		t.Fatalf("failover during claimed repair returned %v, want ErrRepairInFlight", err)
	}
	// Finish the supervised rebuild (slot 1's content is trustworthy
	// again) but keep the claim held.
	if err := a.Rebuild(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Another slot is independent of the still-held claim on slot 1.
	raw[3].Fail()
	if err := sp.Failover(ctx, 3); err != nil {
		t.Fatalf("failover of unrelated slot: %v", err)
	}
	sp.Release(1)
	if sp.InFlight(1) {
		t.Fatal("release did not clear the claim")
	}
	if err := a.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}
