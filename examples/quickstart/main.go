// Quickstart: build a RAID-x array over four in-memory disks, write
// and read data, survive a disk failure, and rebuild — the whole
// life cycle of the paper's orthogonal striping and mirroring in ~60
// lines of API use.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	raidx "repro"
)

func main() {
	ctx := context.Background()

	// Four disks, one per (conceptual) node: a 4x1 RAID-x.
	devs := raidx.NewMemDevs(4, 1024, 4096) // 4 disks x 1024 blocks x 4 KB
	arr, err := raidx.NewRAIDx(devs, 4, 1, raidx.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RAID-x 4x1: %d usable blocks of %d B (half the raw array)\n",
		arr.Blocks(), arr.BlockSize())

	// Write a striped file.
	data := make([]byte, 64*arr.BlockSize())
	rand.New(rand.NewSource(1)).Read(data)
	if err := arr.WriteBlocks(ctx, 0, data); err != nil {
		log.Fatal(err)
	}
	// Mirror images are written in the background; Flush makes the
	// array fully redundant.
	if err := arr.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	if err := arr.Verify(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote 64 blocks; images verified (every block equals its image)")

	// Show where the orthogonal mirror groups went.
	lay := arr.Layout()
	for g := int64(0); g < 4; g++ {
		loc := lay.GroupLoc(g)
		blocks := lay.GroupBlocks(g)
		fmt.Printf("  mirror group %d (images of B%d..B%d) -> disk %d, one contiguous write\n",
			g, blocks[0], blocks[len(blocks)-1], loc.Disk)
	}

	// Kill a disk: reads keep working through the images.
	devs[2].(*raidx.Disk).Fail()
	got := make([]byte, len(data))
	if err := arr.ReadBlocks(ctx, 0, got); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		log.Fatal("degraded read returned wrong data")
	}
	fmt.Println("disk 2 failed: degraded read OK (blocks served from orthogonal images)")

	// Writes continue in degraded mode too.
	update := make([]byte, 8*arr.BlockSize())
	rand.New(rand.NewSource(2)).Read(update)
	if err := arr.WriteBlocks(ctx, 10, update); err != nil {
		log.Fatal(err)
	}
	copy(data[10*arr.BlockSize():], update)
	fmt.Println("degraded write OK")

	// Swap in a blank disk and rebuild it from the surviving copies. The
	// array serves no read from it until the rebuild completes.
	if _, err := arr.SwapDev(2, raidx.NewMemDevs(1, 1024, 4096)[0]); err != nil {
		log.Fatal(err)
	}
	if err := arr.Rebuild(ctx, 2); err != nil {
		log.Fatal(err)
	}
	if err := arr.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	if err := arr.Verify(ctx); err != nil {
		log.Fatal(err)
	}
	if err := arr.ReadBlocks(ctx, 0, got); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		log.Fatal("data wrong after rebuild")
	}
	fmt.Println("disk 2 replaced and rebuilt: array fully redundant again")
}
