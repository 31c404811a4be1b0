package frame

// This file implements the pooled frame arena: per-kind free lists with
// generation-checked headers, mirroring the event-pool design in
// internal/sim. A steady-state simulation acquires every frame it
// transmits from a Pool and releases it when the exchange that carried it
// is over, so the per-frame cost collapses to a free-list pop/push and no
// garbage is created.
//
// Ownership rule (see DESIGN.md §9): the party that acquires a frame owns
// it until it hands the frame to phy.Medium.StartTx, at which point the
// Medium owns it. The Medium releases the frame after the sender's
// OnTxDone AND every receiver's OnFrameReceived have returned (receivers
// hear the frame strictly after the sender finishes, so "release on
// OnTxDone" alone would free a frame still in flight — the Medium performs
// the release on the sender's behalf once the last reception ends).
// Receivers therefore MUST copy out any payload bytes or receiver lists
// they need before returning from OnFrameReceived. The `framecheck` build
// tag turns violations into loud failures by poisoning released frames.
//
// Frames constructed directly (tests, codec round-trips, Unmarshal) have a
// nil owning pool; Release is a no-op for them, so unpooled frames remain
// first-class citizens.

// poolHdr is embedded in every concrete frame struct. The generation
// counter is bumped on every release, so a Ref captured at acquire time
// detects use-after-release even after the frame has been recycled.
type poolHdr struct {
	pool *Pool
	gen  uint32
	live bool
}

func (h *poolHdr) hdr() *poolHdr { return h }

// pooled is implemented by every concrete frame struct via the embedded
// poolHdr.
type pooled interface {
	Frame
	hdr() *poolHdr
}

// PoolStats counts pool traffic. Allocated is the number of acquires that
// missed the free list; in steady state it stops growing.
type PoolStats struct {
	Live      int    // frames acquired and not yet released
	Acquired  uint64 // total acquires
	Allocated uint64 // acquires that hit the Go allocator
	Released  uint64 // total releases
}

// Add folds o's counters into s (one shard's pool into a run's total).
func (s *PoolStats) Add(o PoolStats) {
	s.Live += o.Live
	s.Acquired += o.Acquired
	s.Allocated += o.Allocated
	s.Released += o.Released
}

// Pool is a per-simulation frame arena. It is not safe for concurrent use;
// each engine (and therefore each parallel sweep worker) owns its own Pool,
// exactly like the event pool inside sim.Engine.
type Pool struct {
	mrts  []*MRTS
	rdata []*RData
	udata []*UData
	rts   []*RTS
	cts   []*CTS
	ack   []*ACK
	rak   []*RAK
	data  []*Data

	stats PoolStats
}

// NewPool returns an empty pool; free lists grow on demand.
func NewPool() *Pool { return &Pool{} }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats { return p.stats }

func (p *Pool) acquire(h *poolHdr, hit bool) {
	h.pool = p
	h.live = true
	p.stats.Acquired++
	p.stats.Live++
	if !hit {
		p.stats.Allocated++
	}
}

// MRTS acquires an MRTS frame. The returned frame's Receivers slice is
// empty but keeps its previous capacity; append the receiver set into it.
func (p *Pool) MRTS() *MRTS {
	var f *MRTS
	if n := len(p.mrts); n > 0 {
		f, p.mrts = p.mrts[n-1], p.mrts[:n-1]
		f.Transmitter = Addr{}
		f.Receivers = f.Receivers[:0]
		p.acquire(f.hdr(), true)
		return f
	}
	f = &MRTS{}
	p.acquire(f.hdr(), false)
	return f
}

// RData acquires a reliable data frame with an empty (capacity-preserving)
// Payload.
func (p *Pool) RData() *RData {
	var f *RData
	if n := len(p.rdata); n > 0 {
		f, p.rdata = p.rdata[n-1], p.rdata[:n-1]
		f.Transmitter, f.Receiver = Addr{}, Addr{}
		f.Seq, f.Flags = 0, 0
		f.Payload = f.Payload[:0]
		p.acquire(f.hdr(), true)
		return f
	}
	f = &RData{}
	p.acquire(f.hdr(), false)
	return f
}

// UData acquires an unreliable data frame with an empty Payload.
func (p *Pool) UData() *UData {
	var f *UData
	if n := len(p.udata); n > 0 {
		f, p.udata = p.udata[n-1], p.udata[:n-1]
		f.Transmitter, f.Receiver = Addr{}, Addr{}
		f.Seq, f.Flags = 0, 0
		f.Payload = f.Payload[:0]
		p.acquire(f.hdr(), true)
		return f
	}
	f = &UData{}
	p.acquire(f.hdr(), false)
	return f
}

// RTS acquires an 802.11 RTS frame.
func (p *Pool) RTS() *RTS {
	var f *RTS
	if n := len(p.rts); n > 0 {
		f, p.rts = p.rts[n-1], p.rts[:n-1]
		*f = RTS{poolHdr: f.poolHdr}
		p.acquire(f.hdr(), true)
		return f
	}
	f = &RTS{}
	p.acquire(f.hdr(), false)
	return f
}

// CTS acquires an 802.11 CTS frame.
func (p *Pool) CTS() *CTS {
	var f *CTS
	if n := len(p.cts); n > 0 {
		f, p.cts = p.cts[n-1], p.cts[:n-1]
		*f = CTS{poolHdr: f.poolHdr}
		p.acquire(f.hdr(), true)
		return f
	}
	f = &CTS{}
	p.acquire(f.hdr(), false)
	return f
}

// ACK acquires an 802.11 ACK frame.
func (p *Pool) ACK() *ACK {
	var f *ACK
	if n := len(p.ack); n > 0 {
		f, p.ack = p.ack[n-1], p.ack[:n-1]
		*f = ACK{poolHdr: f.poolHdr}
		p.acquire(f.hdr(), true)
		return f
	}
	f = &ACK{}
	p.acquire(f.hdr(), false)
	return f
}

// RAK acquires a BMMM Request-for-ACK frame.
func (p *Pool) RAK() *RAK {
	var f *RAK
	if n := len(p.rak); n > 0 {
		f, p.rak = p.rak[n-1], p.rak[:n-1]
		*f = RAK{poolHdr: f.poolHdr}
		p.acquire(f.hdr(), true)
		return f
	}
	f = &RAK{}
	p.acquire(f.hdr(), false)
	return f
}

// Data acquires an 802.11-style data frame with an empty Payload.
func (p *Pool) Data() *Data {
	var f *Data
	if n := len(p.data); n > 0 {
		f, p.data = p.data[n-1], p.data[:n-1]
		f.Duration, f.Seq = 0, 0
		f.Receiver, f.Transmitter = Addr{}, Addr{}
		f.Payload = f.Payload[:0]
		p.acquire(f.hdr(), true)
		return f
	}
	f = &Data{}
	p.acquire(f.hdr(), false)
	return f
}

// Release returns a frame to its owning pool. Releasing an unpooled frame
// (constructed directly or decoded by Unmarshal) or nil is a no-op;
// releasing a pooled frame twice panics. Under the framecheck build tag the
// frame's contents are poisoned so use-after-release shows up as garbage.
func Release(f Frame) {
	pf, ok := f.(pooled)
	if !ok || f == nil {
		return
	}
	h := pf.hdr()
	p := h.pool
	if p == nil {
		return
	}
	if !h.live {
		panic("frame: double release of " + f.Kind().String())
	}
	h.live = false
	h.gen++
	poison(pf)
	p.stats.Released++
	p.stats.Live--
	switch v := pf.(type) {
	case *MRTS:
		p.mrts = append(p.mrts, v)
	case *RData:
		p.rdata = append(p.rdata, v)
	case *UData:
		p.udata = append(p.udata, v)
	case *RTS:
		p.rts = append(p.rts, v)
	case *CTS:
		p.cts = append(p.cts, v)
	case *ACK:
		p.ack = append(p.ack, v)
	case *RAK:
		p.rak = append(p.rak, v)
	case *Data:
		p.data = append(p.data, v)
	}
}

// Live reports whether f may legally be read: true for unpooled frames and
// for pooled frames between acquire and release.
func Live(f Frame) bool {
	pf, ok := f.(pooled)
	if !ok {
		return true
	}
	h := pf.hdr()
	return h.pool == nil || h.live
}

// Ref is a generation-checked handle to a frame, mirroring sim.Event. A
// Ref taken while the frame is live goes stale the moment the frame is
// released, even if the pool has already recycled the object.
type Ref struct {
	f   pooled
	gen uint32
}

// MakeRef captures a handle to f. Refs to unpooled frames never go stale.
func MakeRef(f Frame) Ref {
	if pf, ok := f.(pooled); ok && pf.hdr().pool != nil {
		return Ref{f: pf, gen: pf.hdr().gen}
	}
	return Ref{}
}

// Valid reports whether the referenced frame is still the same live
// allocation the Ref was taken from.
func (r Ref) Valid() bool {
	if r.f == nil {
		return true
	}
	h := r.f.hdr()
	return h.live && h.gen == r.gen
}
