package routing

import (
	"slices"
	"testing"
	"testing/quick"

	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/sim"
)

// fakeWorld is an in-memory MAC fabric: unreliable broadcasts reach the
// adjacency list after a tiny delay; reliable sends are not needed here.
type fakeWorld struct {
	eng  *sim.Engine
	macs []*fakeMAC
	adj  map[int][]int
}

type fakeMAC struct {
	w     *fakeWorld
	id    int
	upper mac.UpperLayer
	stats mac.Stats
	sent  []*mac.SendRequest
}

func (f *fakeMAC) Addr() frame.Addr          { return frame.AddrFromID(f.id) }
func (f *fakeMAC) Stats() *mac.Stats         { return &f.stats }
func (f *fakeMAC) SetUpper(u mac.UpperLayer) { f.upper = u }
func (f *fakeMAC) Send(req *mac.SendRequest) bool {
	f.sent = append(f.sent, req)
	for _, nb := range f.w.adj[f.id] {
		dst := f.w.macs[nb]
		payload := req.Payload
		f.w.eng.After(sim.Millisecond, func() {
			if dst.upper != nil {
				dst.upper.OnDeliver(payload, mac.RxInfo{From: f.Addr()})
			}
		})
	}
	return true
}

// upperAdapter routes deliveries straight into the protocol.
type upperAdapter struct{ p *Protocol }

func (u upperAdapter) OnDeliver(payload []byte, _ mac.RxInfo) { u.p.HandleBeacon(payload) }
func (u upperAdapter) OnSendComplete(mac.TxResult)            {}

func newFabric(seed int64, n int, adj map[int][]int) (*sim.Engine, []*Protocol) {
	eng := sim.NewEngine(seed)
	w := &fakeWorld{eng: eng, adj: adj}
	protos := make([]*Protocol, n)
	for i := 0; i < n; i++ {
		fm := &fakeMAC{w: w, id: i}
		w.macs = append(w.macs, fm)
		protos[i] = New(eng, fm, i, i == 0, DefaultConfig())
		fm.SetUpper(upperAdapter{protos[i]})
		protos[i].Start()
	}
	return eng, protos
}

func line(n int) map[int][]int {
	adj := map[int][]int{}
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	return adj
}

func TestBeaconRoundTrip(t *testing.T) {
	cases := []Beacon{
		{ID: 0, Hops: 0, Parent: -1},
		{ID: 74, Hops: 10, Parent: 3, Children: 9},
		{ID: 5, Hops: -1, Parent: -1},
		{ID: 6, Hops: 2, Parent: 1, Children: 255},
	}
	for _, b := range cases {
		got, ok := ParseBeacon(b.Marshal())
		if !ok || got != b {
			t.Fatalf("roundtrip %+v -> %+v (ok=%v)", b, got, ok)
		}
	}
	if _, ok := ParseBeacon([]byte{'X', 0, 0}); ok {
		t.Fatal("junk accepted")
	}
	if _, ok := ParseBeacon(nil); ok {
		t.Fatal("nil accepted")
	}
}

func TestPropertyBeaconRoundTrip(t *testing.T) {
	f := func(id uint16, hops uint8, parent uint16, kids uint8, detached bool) bool {
		b := Beacon{ID: int(id), Hops: int(hops), Parent: int(parent), Children: int(kids)}
		if detached {
			b.Hops, b.Parent = -1, -1
		}
		got, ok := ParseBeacon(b.Marshal())
		return ok && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeFormsOnLine(t *testing.T) {
	eng, protos := newFabric(1, 4, line(4))
	eng.Run(10 * sim.Second)
	wantParent := []int{-1, 0, 1, 2}
	wantHops := []int{0, 1, 2, 3}
	for i, p := range protos {
		if p.Parent() != wantParent[i] || p.Hops() != wantHops[i] {
			t.Fatalf("node %d: parent=%d hops=%d, want %d/%d", i, p.Parent(), p.Hops(), wantParent[i], wantHops[i])
		}
	}
	for i := 0; i < 3; i++ {
		ch := protos[i].Children()
		if len(ch) != 1 || ch[0] != i+1 {
			t.Fatalf("node %d children = %v", i, ch)
		}
	}
	if len(protos[3].Children()) != 0 {
		t.Fatal("leaf has children")
	}
}

func TestParentTieBreaksLowestID(t *testing.T) {
	// Node 3 hears both 1 and 2 (both at hop 1); it must pick 1.
	adj := map[int][]int{
		0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2},
	}
	eng, protos := newFabric(2, 4, adj)
	eng.Run(10 * sim.Second)
	if protos[3].Parent() != 1 {
		t.Fatalf("node 3 parent = %d, want 1 (lowest ID at min hops)", protos[3].Parent())
	}
	if protos[3].Hops() != 2 {
		t.Fatalf("node 3 hops = %d", protos[3].Hops())
	}
}

func TestNeighborExpiry(t *testing.T) {
	eng, protos := newFabric(3, 2, line(2))
	eng.Run(5 * sim.Second)
	if protos[1].Parent() != 0 || protos[1].NeighborCount() != 1 {
		t.Fatal("tree did not form")
	}
	// Partition: stop deliveries by clearing adjacency, run past expiry.
	w := protosWorld(protos)
	w.adj = map[int][]int{}
	eng.Run(eng.Now() + 10*sim.Second)
	if protos[1].Parent() != -1 || protos[1].Hops() != -1 {
		t.Fatalf("stale parent survived: parent=%d hops=%d", protos[1].Parent(), protos[1].Hops())
	}
	if protos[1].NeighborCount() != 0 {
		t.Fatal("stale neighbour survived")
	}
}

// protosWorld digs the shared fakeWorld out of a protocol set.
func protosWorld(protos []*Protocol) *fakeWorld {
	return protos[0].mac.(*fakeMAC).w
}

func TestRootIgnoresBetterOffers(t *testing.T) {
	eng, protos := newFabric(4, 2, line(2))
	eng.Run(5 * sim.Second)
	if protos[0].Parent() != -1 || protos[0].Hops() != 0 {
		t.Fatal("root must stay parentless at hop 0")
	}
}

func TestOwnBeaconIgnored(t *testing.T) {
	eng := sim.NewEngine(5)
	fm := &fakeMAC{w: &fakeWorld{eng: eng, adj: map[int][]int{}}, id: 7}
	fm.w.macs = []*fakeMAC{nil, nil, nil, nil, nil, nil, nil, fm}
	p := New(eng, fm, 7, false, DefaultConfig())
	if !p.HandleBeacon(Beacon{ID: 7, Hops: 3, Parent: 1}.Marshal()) {
		t.Fatal("own beacon not recognised as beacon")
	}
	if p.NeighborCount() != 0 {
		t.Fatal("node learned itself as neighbour")
	}
}

func TestHandleBeaconRejectsData(t *testing.T) {
	eng := sim.NewEngine(6)
	p := New(eng, &fakeMAC{w: &fakeWorld{eng: eng}}, 1, false, DefaultConfig())
	if p.HandleBeacon([]byte{'D', 1, 2, 3}) {
		t.Fatal("data payload consumed as beacon")
	}
}

func TestBeaconRateRoughlyPeriodic(t *testing.T) {
	eng, protos := newFabric(7, 1, map[int][]int{})
	eng.Run(30 * sim.Second)
	sent := protos[0].BeaconsSent
	want := uint64(30 * sim.Second / DefaultConfig().Period)
	if sent < want*8/10 || sent > want*12/10 {
		t.Fatalf("beacons in 30s = %d, want ≈%d", sent, want)
	}
}

// hear feeds p a beacon from id at simulated time t.
func hear(eng *sim.Engine, p *Protocol, t sim.Time, b Beacon) {
	eng.Run(t)
	p.HandleBeacon(b.Marshal())
}

func TestChildrenAscendingWhenHeardDescending(t *testing.T) {
	eng := sim.NewEngine(8)
	p := New(eng, nil, 50, false, DefaultConfig())
	for _, id := range []int{90, 70, 60, 30, 10, 5} {
		hear(eng, p, 0, Beacon{ID: id, Hops: 2, Parent: 50})
	}
	hear(eng, p, 0, Beacon{ID: 40, Hops: 2, Parent: 7}) // a neighbour, not a child
	want := []int{5, 10, 30, 60, 70, 90}
	if got := p.Children(); !slices.Equal(got, want) {
		t.Fatalf("children = %v, want %v", got, want)
	}
	if p.NeighborCount() != 7 {
		t.Fatalf("neighbours = %d, want 7", p.NeighborCount())
	}
}

func TestTieAfterExpiryPicksLowestID(t *testing.T) {
	eng := sim.NewEngine(9)
	p := New(eng, nil, 50, false, DefaultConfig())
	hear(eng, p, 0, Beacon{ID: 3, Hops: 1, Parent: 0, Children: 5})
	// Equal hops and children, heard out of order; none beats the
	// incumbent 3.
	for _, id := range []int{9, 7, 5} {
		hear(eng, p, sim.Second, Beacon{ID: id, Hops: 1, Parent: 0})
	}
	if p.Parent() != 3 {
		t.Fatalf("parent = %d, want 3", p.Parent())
	}
	// 3 expires; the next beacon forces a full recompute over the tie.
	hear(eng, p, 3500*sim.Millisecond, Beacon{ID: 9, Hops: 1, Parent: 0})
	if p.Parent() != 5 || p.Hops() != 2 {
		t.Fatalf("parent = %d hops = %d, want 5/2 (lowest ID on a tie)", p.Parent(), p.Hops())
	}
	if len(p.neighbors) != 3 {
		t.Fatalf("table holds %d entries after expiry, want 3", len(p.neighbors))
	}
}

func TestExpiredNeighbourReinsertedInOrder(t *testing.T) {
	eng := sim.NewEngine(10)
	p := New(eng, nil, 50, false, DefaultConfig())
	for _, id := range []int{60, 40, 20} {
		hear(eng, p, 0, Beacon{ID: id, Hops: 2, Parent: 50})
	}
	// 20 and 60 stay fresh; 40 falls silent past Expiry and is dropped
	// from the table at the next recompute.
	hear(eng, p, 2*sim.Second, Beacon{ID: 20, Hops: 2, Parent: 50})
	hear(eng, p, 2*sim.Second, Beacon{ID: 60, Hops: 2, Parent: 50})
	eng.Run(4 * sim.Second)
	p.recompute()
	if got := p.Children(); !slices.Equal(got, []int{20, 60}) || len(p.neighbors) != 2 {
		t.Fatalf("after expiry: children = %v, table = %d entries", got, len(p.neighbors))
	}
	hear(eng, p, 4*sim.Second, Beacon{ID: 40, Hops: 2, Parent: 50})
	if got := p.Children(); !slices.Equal(got, []int{20, 40, 60}) {
		t.Fatalf("after re-hearing 40: children = %v, want [20 40 60]", got)
	}
}
