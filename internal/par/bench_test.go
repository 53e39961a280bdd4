package par

import (
	"context"
	"fmt"
	"testing"
)

// descend is a call chain of depth frames of 256 bytes each: at 32 it
// needs the ~8 KiB of stack a branch's descent through the engine, the
// remote device and the transport to the socket write needs, which a
// goroutine's starting stack does not have.
//
//go:noinline
func descend(depth int) byte {
	var frame [256]byte
	frame[depth] = byte(depth)
	if depth > 0 {
		frame[0] = descend(depth - 1)
	}
	return frame[0] + frame[depth]
}

// BenchmarkDo is the fan-out layer alone: `go test -run '^$' -bench Do
// -cpuprofile` shows what share of a fan-out is runtime.newstack /
// copystack with no cluster behind it.
func BenchmarkDo(b *testing.B) {
	for _, width := range []int{2, 4, 10} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			ctx := context.Background()
			var sink [16]byte
			branch := func(_ context.Context, i int) error {
				sink[i] = descend(32)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ForEach(ctx, width, branch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
