package app

import (
	"fmt"
	"runtime"
	"testing"

	"rmac/internal/mac"
	"rmac/internal/sim"
)

// scaleSources is the number of distinct packet origins a node hears in
// the scaling checks, whatever the network size.
const scaleSources = 20

// spreadIDs returns scaleSources distinct origin ids spread evenly over
// [0, n), so any per-node table indexed by origin id would have to span
// the network.
func spreadIDs(n int) []int {
	ids := make([]int, scaleSources)
	for k := range ids {
		ids[k] = (k*n + n/2) / scaleSources
	}
	return ids
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

// TestFootprintFlatInN asserts that a node's duplicate-suppression state
// costs the same whether its origins carry ids out of 100 or out of 10k.
func TestFootprintFlatInN(t *testing.T) {
	const nodes = 100 // nodes measured together, to lift the signal over heap noise
	eng := sim.NewEngine(1)
	footprint := func(n int) int64 {
		var payloads [][]byte
		for seq := uint32(1); seq <= 64; seq++ {
			for _, src := range spreadIDs(n) {
				payloads = append(payloads, MarshalPacket(src, seq, 0, HeaderSize))
			}
		}
		return retainedBytes(func() any {
			ns := make([]*Node, nodes)
			for i := range ns {
				m := &captureMAC{id: n + i}
				ns[i] = NewNode(eng, m, routingWithChildren(eng, m, n+i, nil), n+i, &Metrics{})
				for _, p := range payloads {
					ns[i].OnDeliver(p, mac.RxInfo{})
				}
			}
			return ns
		})
	}
	footprint(100) // warm-up: the first reading in a process has come out low
	small, large := footprint(100), footprint(10000)
	t.Logf("%d nodes hearing %d origins: %d B at N=100, %d B at N=10k", nodes, scaleSources, small, large)
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("dedup state retains %d B at N=10k vs %d B at N=100, want within 1.5x", large, small)
	}
}

// BenchmarkDeliverDedup times one new data delivery to a leaf, whose
// cost is the duplicate check, as the origin id space grows; ns/op should
// not move with N.
func BenchmarkDeliverDedup(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eng := sim.NewEngine(1)
			m := &captureMAC{id: n}
			node := NewNode(eng, m, routingWithChildren(eng, m, n, nil), n, &Metrics{})
			srcs := spreadIDs(n)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendPacket(buf[:0], srcs[i%scaleSources], uint32(i/scaleSources+1), 0, HeaderSize)
				node.OnDeliver(buf, mac.RxInfo{})
			}
		})
	}
}
