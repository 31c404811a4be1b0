package audit_test

import (
	"fmt"
	"runtime"
	"testing"

	"rmac/internal/audit"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// scaleSenders is the number of distinct per-hop senders a node receives
// reliable frames from in the scaling checks, whatever the network size.
const scaleSenders = 20

// spreadSenders returns scaleSenders distinct sender addresses spread
// evenly over node ids [0, n), so any per-node table indexed by sender id
// would have to span the network.
func spreadSenders(n int) []frame.Addr {
	addrs := make([]frame.Addr, scaleSenders)
	for k := range addrs {
		addrs[k] = frame.AddrFromID((k*n + n/2) / scaleSenders)
	}
	return addrs
}

// retainedBytes reports the live heap that the value build returns holds
// on to: the heap after a full collection, less the heap before build ran.
func retainedBytes(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestFootprintFlatInN asserts that the auditor's per-node delivery
// dedup costs the same whether senders carry ids out of 100 or out of 10k.
func TestFootprintFlatInN(t *testing.T) {
	const nodes = 100 // nodes measured together, to lift the signal over heap noise
	footprint := func(n int) int64 {
		senders := spreadSenders(n)
		eng := sim.NewEngine(1)
		m := phy.NewMedium(eng, phy.DefaultConfig())
		return retainedBytes(func() any {
			aud := audit.New(eng, m, audit.Config{})
			for node := 0; node < nodes; node++ {
				shim := aud.WrapUpper(node, &recUpper{})
				for seq := uint32(1); seq <= 64; seq++ {
					for _, from := range senders {
						shim.OnDeliver(nil, mac.RxInfo{From: from, Reliable: true, Seq: seq})
					}
				}
			}
			if aud.Count != 0 {
				t.Fatalf("unique deliveries flagged: %v", aud.Violations())
			}
			return aud
		})
	}
	footprint(100) // warm-up: the first reading in a process has come out low
	small, large := footprint(100), footprint(10000)
	t.Logf("%d nodes hearing %d senders: %d B at N=100, %d B at N=10k", nodes, scaleSenders, small, large)
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("audit dedup retains %d B at N=10k vs %d B at N=100, want within 1.5x", large, small)
	}
}

// BenchmarkReliableDedup times the auditor's at-most-once check on one
// new reliable delivery as the sender id space grows; ns/op should not
// move with N.
func BenchmarkReliableDedup(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eng := sim.NewEngine(1)
			aud := audit.New(eng, phy.NewMedium(eng, phy.DefaultConfig()), audit.Config{})
			shim := aud.WrapUpper(0, &recUpper{})
			senders := spreadSenders(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shim.OnDeliver(nil, mac.RxInfo{
					From: senders[i%scaleSenders], Reliable: true, Seq: uint32(i/scaleSenders + 1),
				})
			}
			if aud.Count != 0 {
				b.Fatalf("unique deliveries flagged: %d", aud.Count)
			}
		})
	}
}
