package routing

import (
	"fmt"
	"runtime"
	"testing"

	"rmac/internal/sim"
)

// scaleDegree is the neighbourhood size of the scaling checks: a node
// hears this many neighbours whatever the network size.
const scaleDegree = 20

// spreadIDs returns scaleDegree distinct ids spread evenly over [0, n),
// so any per-node table indexed by id would have to span the network.
func spreadIDs(n int) []int {
	ids := make([]int, scaleDegree)
	for k := range ids {
		ids[k] = (k*n + n/2) / scaleDegree
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

// TestFootprintFlatInN asserts that a node's neighbour table costs the
// same whether its scaleDegree neighbours carry ids out of 100 or out of
// 10k: the table is sized by degree, not by the network.
func TestFootprintFlatInN(t *testing.T) {
	const nodes = 100 // tables measured together, to lift the signal over heap noise
	eng := sim.NewEngine(1)
	footprint := func(n int) int64 {
		return retainedBytes(func() any {
			ps := make([]*Protocol, nodes)
			for i := range ps {
				ps[i] = New(eng, nil, n+i, false, DefaultConfig())
				for k, id := range spreadIDs(n) {
					parent := -1
					if k%2 == 0 {
						parent = ps[i].id
					}
					ps[i].HandleBeacon(Beacon{ID: id, Hops: 1, Parent: parent}.Marshal())
				}
				ps[i].childBuf = ps[i].ChildrenInto(ps[i].childBuf)
			}
			return ps
		})
	}
	footprint(100) // warm-up: the first reading in a process has come out low
	small, large := footprint(100), footprint(10000)
	t.Logf("%d nodes at degree %d: %d B at N=100, %d B at N=10k", nodes, scaleDegree, small, large)
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("neighbour tables retain %d B at N=10k vs %d B at N=100, want within 1.5x", large, small)
	}
}

// BenchmarkBeaconIngest times one beacon ingest plus the per-forward
// children query at a fixed degree as the id space grows; ns/op should
// not move with N.
func BenchmarkBeaconIngest(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eng := sim.NewEngine(1)
			p := New(eng, nil, n, false, DefaultConfig())
			var beacons [][]byte
			for k, id := range spreadIDs(n) {
				parent := -1
				if k%2 == 0 {
					parent = p.id
				}
				beacons = append(beacons, Beacon{ID: id, Hops: 1 + k%3, Parent: parent, Children: k % 4}.Marshal())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.HandleBeacon(beacons[i%len(beacons)])
				p.childBuf = p.ChildrenInto(p.childBuf[:0])
			}
		})
	}
}
