package phy

import (
	"fmt"
	"math"
	"sort"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
	"rmac/internal/trace"
)

// Medium is the shared wireless channel: it owns every Radio in a
// simulation, computes propagation delays from node positions, fans
// transmissions and tone transitions out to in-range radios, and tracks
// overlap so each receiver knows whether a frame arrived collision-free.
//
// The fan-out path is allocation-free in steady state: transmissions,
// per-receiver rx paths and tone sessions are recycled through per-medium
// free lists, and every callback is scheduled as a tagged event on the
// pooled object itself (see sim.Caller) rather than as a heap closure.
type Medium struct {
	eng    *sim.Engine
	cfg    Config
	radios []*Radio
	imp    Impairment

	// Stats counts channel-level totals across the run.
	Stats MediumStats

	// Tracer, when non-nil, records frame and tone events (see package
	// trace). Nil costs nothing: every call site guards both the Add call
	// and its Detail formatting behind a nil check.
	Tracer *trace.Trace

	// Obs, when non-nil, receives pre-transition callbacks for every
	// observable medium event (see Observer). Nil costs one branch per
	// hook site.
	Obs Observer

	grid *spatialGrid

	// Object pools. A released object keeps its slice capacity, so a
	// steady-state broadcast reuses the same backing arrays every frame.
	txFree   []*transmission
	rxFree   []*rxPath
	sessFree []*toneSession

	// frames is the arena every layer above draws its frames from. StartTx
	// transfers frame ownership to the medium, which releases the frame
	// once the sender's OnTxDone and all receptions have completed (see
	// frame.Release and DESIGN.md §9).
	frames *frame.Pool

	// cross, when non-nil, is this medium's half of a sharded run's
	// cross-shard fabric (see cross.go): border-radio transmissions,
	// aborts, and tone transitions are mirrored into foreign shards
	// through it. Nil — the unsharded case — costs one branch per hook.
	cross *shardConduit
}

// MediumStats aggregates channel-level counters.
type MediumStats struct {
	Transmissions  uint64 // StartTx calls
	Aborts         uint64 // AbortTx calls
	FramesDecoded  uint64 // deliveries with ok=true
	FramesCorrupt  uint64 // deliveries with ok=false (collision/abort/BER)
	ToneActivation uint64 // SetTone(on) calls
	Crashes        uint64 // SetDown(true) transitions (fault injection)
}

// Add folds o's counters into s (one shard's medium into a run's total).
func (s *MediumStats) Add(o MediumStats) {
	s.Transmissions += o.Transmissions
	s.Aborts += o.Aborts
	s.FramesDecoded += o.FramesDecoded
	s.FramesCorrupt += o.FramesCorrupt
	s.ToneActivation += o.ToneActivation
	s.Crashes += o.Crashes
}

// NewMedium creates an empty medium on the given engine.
func NewMedium(eng *sim.Engine, cfg Config) *Medium {
	if cfg.CommRange <= 0 || cfg.BitRate <= 0 || cfg.PropSpeed <= 0 {
		panic("phy: invalid Config")
	}
	return &Medium{eng: eng, cfg: cfg, frames: frame.NewPool()}
}

// Frames returns the medium's frame pool. All MAC and application layers
// of one simulation share it; like the medium itself it is confined to the
// engine's goroutine.
func (m *Medium) Frames() *frame.Pool { return m.frames }

// Impairment is an extra channel-error model consulted for every frame
// that is otherwise decodable (collision-free, in range, not aborted, not
// at a crashed radio, and past the independent-BER roll). Implemented by
// internal/fault's Gilbert–Elliott bursty channel; nil disables it at
// zero cost.
//
// FrameError must draw all of its randomness from the owning engine's
// Rand() so that the determinism contract of the delivery path holds (see
// the package comment), and must not allocate: it runs on the per-frame
// hot path.
type Impairment interface {
	// FrameError reports whether the frame of the given wire size from tx
	// is corrupted on its path to rx. Called at reception end.
	FrameError(rx, tx *Radio, wireBytes int) bool
}

// SetImpairment installs (or, with nil, removes) the medium's extra
// channel-error model. Install it before traffic starts: swapping models
// mid-run changes the RNG consumption sequence from that point on.
func (m *Medium) SetImpairment(imp Impairment) { m.imp = imp }

// Config returns the medium's radio configuration.
func (m *Medium) Config() Config { return m.cfg }

// Engine returns the simulation engine the medium is bound to.
func (m *Medium) Engine() *sim.Engine { return m.eng }

// AddRadio creates and registers the radio for node id, moving according to
// mob. The returned radio must be given a Handler before traffic starts.
// Stationary radios cache their position, removing the mobility-model call
// from every in-range query.
func (m *Medium) AddRadio(id int, mob mobility.Model) *Radio {
	r := &Radio{
		m:        m,
		eng:      m.eng,
		id:       id,
		mob:      mob,
		memoTime: -1,
	}
	if s, ok := mob.(mobility.Stationary); ok {
		r.static = true
		r.pos = s.P
	}
	for t := range r.toneLog {
		r.toneLog[t].onSince = -1
	}
	m.radios = append(m.radios, r)
	return r
}

// Radios returns all registered radios.
func (m *Medium) Radios() []*Radio { return m.radios }

// PositionOf returns node r's current position. Mobile positions are
// memoized per (radio, instant): a fan-out queries every in-range radio at
// the same timestamp, so repeat queries hit the memo instead of re-walking
// the trajectory.
func (m *Medium) PositionOf(r *Radio) geom.Point {
	if r.static {
		return r.pos
	}
	now := m.eng.Now()
	if r.memoTime == now {
		return r.memoPos
	}
	p := r.mob.PositionAt(now)
	r.memoTime, r.memoPos = now, p
	return p
}

// positionAt returns node r's position at time t, which may trail the
// engine clock by up to the mobility retention horizon. The cross-shard
// conduit uses it to replay a foreign transmission's start-time geometry
// at holder-fire time (the fire runs minProp after the start). Read-only
// with respect to the memo: a backward query must not poison the
// current-instant cache.
func (m *Medium) positionAt(r *Radio, t sim.Time) geom.Point {
	if r.static {
		return r.pos
	}
	if r.memoTime == t {
		return r.memoPos
	}
	return r.mob.PositionAt(t)
}

// propDelay converts a distance to a propagation delay; a floor of 1 ns
// keeps event ordering strict for co-located nodes.
func (m *Medium) propDelay(dist float64) sim.Time {
	d := sim.Time(dist / m.cfg.PropSpeed * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// NeighborsOf returns the IDs of nodes currently within communication range
// of r, in ascending ID order. Used by routing/topology analysis, not by
// the PHY fast path.
func (m *Medium) NeighborsOf(r *Radio) []int {
	p := m.PositionOf(r)
	var out []int
	m.forEachInRange(r, p, m.cfg.CommRange, func(o *Radio, _ float64) {
		out = append(out, o.id)
	})
	sort.Ints(out)
	return out
}

// Tags for the pooled objects' sim.Caller dispatch.
const (
	tagRxStart int32 = iota
	tagRxEnd
)

// transmission is one frame in flight on the data channel.
type transmission struct {
	src      *Radio
	f        frame.Frame
	start    sim.Time
	end      sim.Time // updated if aborted
	aborted  bool
	finished bool // txDone ran or AbortTx was called
	crossed  bool // mirrored into at least one foreign shard (sharded runs)
	pending  int  // rx paths whose rxEnd has not run yet
	doneEv   sim.Event
	dests    []*rxPath
}

// Call implements sim.Caller: natural completion of the transmission.
func (tx *transmission) Call(int32) { tx.src.m.txDone(tx) }

// rxPath tracks the signal from one transmission at one receiver.
type rxPath struct {
	tx        *transmission
	r         *Radio
	prop      sim.Time
	inComm    bool // within decode range at TX start
	corrupted bool // overlap, receiver-transmitting, or abort
	started   bool // rxStart already processed
	endEv     sim.Event
}

// Call implements sim.Caller: arrival of the signal's first or last bit.
//
// Last-bit arrivals batch: propagation delays are quantized to whole
// nanoseconds, so in a dense neighborhood several receivers' rxEnd events
// share one tick. After running one, the drain loop consumes every
// immediately-following rxEnd at the same instant straight off the
// engine's due list (PeekCall/TakeNext) without re-entering the dispatch
// loop. PeekCall only ever yields the provably-next event, so dispatch
// order — and with it every RNG draw in channelError — is bit-identical
// to the unbatched path.
func (p *rxPath) Call(tag int32) {
	m := p.r.m // rxEnd recycles p; grab the medium first
	if tag == tagRxStart {
		m.rxStart(p)
	} else {
		m.rxEnd(p)
	}
	now := m.eng.Now()
	for {
		c, t, ok := m.eng.PeekCall(now)
		if !ok || t != tag {
			return
		}
		q, isRx := c.(*rxPath)
		if !isRx {
			return // a tone or tx-done tag can collide numerically
		}
		m.eng.TakeNext()
		if t == tagRxStart {
			m.rxStart(q)
		} else {
			m.rxEnd(q)
		}
	}
}

// newTx takes a transmission from the pool (or allocates the pool's first).
func (m *Medium) newTx() *transmission {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		return tx
	}
	return &transmission{}
}

// freeTx recycles a spent transmission and releases the frame it carried:
// at this point the sender's OnTxDone and every receiver's OnFrameReceived
// have returned, so no live reference remains (pool-less frames, e.g.
// hand-built ones in tests, are untouched by Release).
func (m *Medium) freeTx(tx *transmission) {
	frame.Release(tx.f)
	*tx = transmission{dests: tx.dests[:0]}
	m.txFree = append(m.txFree, tx)
}

func (m *Medium) newRxPath() *rxPath {
	if n := len(m.rxFree); n > 0 {
		p := m.rxFree[n-1]
		m.rxFree = m.rxFree[:n-1]
		return p
	}
	return &rxPath{}
}

func (m *Medium) freeRx(p *rxPath) {
	*p = rxPath{}
	m.rxFree = append(m.rxFree, p)
}

func (m *Medium) newSess() *toneSession {
	if n := len(m.sessFree); n > 0 {
		s := m.sessFree[n-1]
		m.sessFree = m.sessFree[:n-1]
		return s
	}
	return &toneSession{}
}

func (m *Medium) freeSess(s *toneSession) {
	s.dests = s.dests[:0]
	s.props = s.props[:0]
	m.sessFree = append(m.sessFree, s)
}

// StartTx begins transmitting f from r. It returns the scheduled airtime.
// The radio's handler receives OnTxDone when the transmission completes
// naturally; an aborted transmission (AbortTx) does not call OnTxDone.
func (m *Medium) StartTx(r *Radio, f frame.Frame) sim.Time {
	if m.Obs != nil {
		// Before the double-TX panic below, so the auditor records the
		// violation even when the medium refuses the transmission.
		m.Obs.ObsTxStart(r, f)
	}
	if r.curTx != nil {
		panic(fmt.Sprintf("phy: node %d StartTx while already transmitting", r.id))
	}
	now := m.eng.Now()
	dur := m.cfg.TxDuration(f.WireSize())
	tx := m.newTx()
	tx.src, tx.f, tx.start, tx.end = r, f, now, now+dur
	r.curTx = tx
	m.Stats.Transmissions++

	// A node cannot decode while transmitting: poison any in-progress
	// receptions at the transmitter.
	for _, p := range r.active {
		p.corrupted = true
	}

	// A crashed radio transmits into its dead front-end: the MAC sees the
	// usual airtime and OnTxDone (so its state machine keeps advancing into
	// its timeout/retry paths), but no energy reaches any receiver.
	if !r.down {
		srcPos := m.PositionOf(r)
		c2 := m.cfg.CommRange * m.cfg.CommRange
		m.forEachInRange(r, srcPos, m.cfg.interferenceRange(), func(o *Radio, d2 float64) {
			p := m.newRxPath()
			p.tx, p.r, p.inComm = tx, o, d2 <= c2
			p.prop = m.propDelay(math.Sqrt(d2))
			tx.dests = append(tx.dests, p)
			m.eng.ScheduleCall(now+p.prop, p, tagRxStart)
			p.endEv = m.eng.ScheduleCall(tx.end+p.prop, p, tagRxEnd)
		})
		if m.cross != nil && r.border {
			tx.crossed = true
			m.cross.txStart(r, tx)
		}
	}
	tx.pending = len(tx.dests)
	tx.doneEv = m.eng.ScheduleCall(tx.end, tx, 0)
	if m.Tracer != nil {
		m.Tracer.Add(trace.Event{At: now, Node: r.id, Kind: trace.TxStart, What: f.Kind().String(),
			Detail: fmt.Sprintf("%dB %v", f.WireSize(), dur)})
	}
	return dur
}

// AbortTx aborts r's in-flight transmission immediately (RMAC step 3 /
// Unreliable Send step 2: stop when an RBT is detected). The truncated
// signal still occupies the channel until now+prop at each receiver and is
// never decodable there. No OnTxDone callback is made; the caller knows it
// aborted.
//
// Aborting a transmission that a crash (SetDown) already truncated is
// legal — a crashed radio's baseband still senses tones, so its MAC can
// reach an abort transition during the dead transmission's airtime. In
// that case only the sender-side bookkeeping runs: the signal was already
// cut at every receiver at crash time, and tx.dests may by now reference
// rx paths that completed and returned to the pool (possibly reused by a
// later transmission), so they must not be touched again.
func (m *Medium) AbortTx(r *Radio) {
	tx := r.curTx
	if tx == nil {
		panic(fmt.Sprintf("phy: node %d AbortTx with no transmission", r.id))
	}
	if m.Obs != nil {
		m.Obs.ObsTxAbort(r, tx.f)
	}
	now := m.eng.Now()
	truncated := tx.aborted // SetDown already cut the signal at every receiver
	tx.aborted = true
	tx.finished = true
	tx.end = now
	tx.doneEv.Cancel()
	m.Stats.Aborts++
	if !truncated {
		for _, p := range tx.dests {
			if p.tx != tx || !p.endEv.Pending() {
				continue // rxEnd already ran; path is freed or reused
			}
			p.corrupted = true
			p.endEv.Cancel()
			p.endEv = m.eng.ScheduleCall(now+p.prop, p, tagRxEnd)
		}
		if tx.crossed && m.cross != nil {
			m.cross.txAbort(r, tx, now)
		}
	}
	r.curTx = nil
	if m.Tracer != nil {
		m.Tracer.Add(trace.Event{At: now, Node: r.id, Kind: trace.TxAbort, What: tx.f.Kind().String()})
	}
	if tx.pending == 0 {
		m.freeTx(tx)
	}
}

func (m *Medium) txDone(tx *transmission) {
	if m.Obs != nil {
		m.Obs.ObsTxEnd(tx.src, tx.f)
	}
	tx.src.curTx = nil
	tx.finished = true
	h := tx.src.handler
	f := tx.f
	// The handler runs before the transmission (and its frame) is
	// recycled: OnTxDone may read the frame, but must not keep it.
	last := tx.pending == 0
	if h != nil {
		frame.AssertLive(f)
		h.OnTxDone(f)
	}
	if last {
		m.freeTx(tx)
	}
}

func (m *Medium) rxStart(p *rxPath) {
	r := p.r
	p.started = true
	// Overlap: if any other signal is active at this receiver, every
	// involved signal is corrupted.
	if len(r.active) > 0 {
		p.corrupted = true
		for _, q := range r.active {
			q.corrupted = true
		}
	}
	// A transmitting node cannot decode; neither can a crashed one.
	if r.curTx != nil || r.down {
		p.corrupted = true
	}
	r.active = append(r.active, p)
	if len(r.active) == 1 && r.handler != nil {
		r.handler.OnCarrierChange(true)
	}
}

// channelError rolls channel noise for an otherwise-decodable frame
// (control and data frames alike): first the independent per-bit BER,
// then the pluggable Impairment model. Both draw from the engine's
// deterministic RNG, and draws happen only here — in rxEnd event order —
// which is what keeps same-seed runs bit-identical; see the package
// comment for the full determinism contract.
func (m *Medium) channelError(r *Radio, tx *transmission) bool {
	if m.cfg.BER > 0 &&
		m.eng.Rand().Float64() < m.cfg.FrameErrorProb(tx.f.WireSize()) {
		return true
	}
	if m.imp != nil && m.imp.FrameError(r, tx.src, tx.f.WireSize()) {
		return true
	}
	return false
}

func (m *Medium) rxEnd(p *rxPath) {
	r := p.r
	if p.started {
		for i, q := range r.active {
			if q == p {
				r.active = append(r.active[:i], r.active[i+1:]...)
				break
			}
		}
	}
	tx := p.tx
	ok := p.started && p.inComm && !p.corrupted && !tx.aborted
	if ok {
		ok = !m.channelError(r, tx)
	}
	if ok {
		m.Stats.FramesDecoded++
	} else {
		m.Stats.FramesCorrupt++
	}
	if m.Tracer != nil {
		k := trace.RxOK
		if !ok {
			k = trace.RxCorrupt
		}
		m.Tracer.Add(trace.Event{At: m.eng.Now(), Node: r.id, Kind: k, What: tx.f.Kind().String(),
			Detail: "from node " + fmt.Sprint(tx.src.id)})
	}
	if m.Obs != nil {
		m.Obs.ObsRxEnd(r, tx.src, tx.f, ok, p.started)
	}
	started := p.started
	rxStart := tx.start + p.prop
	f := tx.f
	// The path is recycled before the handler runs (so a handler that
	// transmits immediately reuses the warm object), but the transmission
	// — which owns the frame — is recycled only after the handler returns:
	// the receiver may read the frame during OnFrameReceived and must
	// copy out anything it wants to keep.
	m.freeRx(p)
	tx.pending--
	last := tx.finished && tx.pending == 0
	if r.handler != nil {
		frame.AssertLive(f)
		r.handler.OnFrameReceived(f, ok, rxStart)
	}
	if last {
		m.freeTx(tx)
	}
	if len(r.active) == 0 && started && r.handler != nil {
		r.handler.OnCarrierChange(false)
	}
}

// SetTone turns node r's tone t on or off. Tone transitions propagate with
// the same per-neighbor delay as data; the emitting node does not sense its
// own tone. Turning a tone on twice (or off while off) panics — protocol
// state machines must track their own tone state.
func (m *Medium) SetTone(r *Radio, t Tone, on bool) {
	if m.Obs != nil {
		// Before the double-transition panic, mirroring StartTx.
		m.Obs.ObsToneSet(r, t, on)
	}
	if r.ownTone[t] == on {
		panic(fmt.Sprintf("phy: node %d tone %v already %v", r.id, t, on))
	}
	r.ownTone[t] = on
	now := m.eng.Now()
	if m.Tracer != nil {
		k := trace.ToneOn
		if !on {
			k = trace.ToneOff
		}
		m.Tracer.Add(trace.Event{At: now, Node: r.id, Kind: k, What: t.String()})
	}
	if on {
		m.Stats.ToneActivation++
		if r.down {
			// A crashed radio raises no tone energy: ownTone tracks the
			// MAC's intent, but no session forms and nothing propagates.
			// The matching off-transition is a no-op (nil session).
			return
		}
		srcPos := m.PositionOf(r)
		sess := m.newSess()
		m.forEachInRange(r, srcPos, m.cfg.interferenceRange(), func(o *Radio, d2 float64) {
			sess.dests = append(sess.dests, o)
			sess.props = append(sess.props, m.propDelay(math.Sqrt(d2)))
		})
		r.toneSess[t] = sess
		for i, o := range sess.dests {
			m.eng.ScheduleCall(now+sess.props[i], o, toneOnTag(t))
		}
		if m.cross != nil && r.border {
			r.crossTone[t] = true
			m.cross.toneSet(r, t, true, now)
		}
		return
	}
	if r.crossTone[t] && m.cross != nil {
		r.crossTone[t] = false
		m.cross.toneSet(r, t, false, now)
	}
	sess := r.toneSess[t]
	r.toneSess[t] = nil
	if sess == nil {
		return
	}
	for i, o := range sess.dests {
		m.eng.ScheduleCall(now+sess.props[i], o, toneOffTag(t))
	}
	m.freeSess(sess)
}

// SetDown crashes (down=true) or recovers (down=false) node r's radio —
// the PHY half of fault-injected node churn. A crashed radio neither
// transmits nor receives:
//
//   - Its in-flight transmission, if any, truncates immediately at every
//     receiver (never decodable there), exactly like AbortTx — but unlike
//     AbortTx the MAC still gets its OnTxDone at the original end time,
//     so the sender state machine runs into its normal timeout/retry
//     paths instead of wedging in a TX state.
//   - Every signal currently arriving at r is poisoned, and new arrivals
//     while down are undecodable; foreign MACs see the missing feedback
//     and exercise their retransmission and drop paths.
//   - Tones r is emitting drop at every listener (the sessions end), and
//     no tone energy is emitted while down. ownTone keeps tracking the
//     MAC's intent so the protocol's own off-transition stays legal.
//
// Sensing (carrier and tone levels) deliberately keeps operating while
// down — the model is a dead RF power stage with a live baseband — which
// preserves the medium's +1/-1 accounting across crashes. Recovery is
// instantaneous for carrier and decoding: the next StartTx radiates and
// new arrivals decode normally. Tones are NOT re-raised: a tone dropped
// at crash time stays down at every listener until the MAC's next
// off→on transition for it, even though ownTone still records the MAC's
// intent — the dead power stage lost the tone, and the recovered
// hardware does not replay MAC state it never saw. SetDown is idempotent
// in either direction.
func (m *Medium) SetDown(r *Radio, down bool) {
	if r.down == down {
		return
	}
	if m.Obs != nil {
		m.Obs.ObsDown(r, down)
	}
	r.down = down
	if m.Tracer != nil {
		k := trace.NodeDown
		if !down {
			k = trace.NodeUp
		}
		m.Tracer.Add(trace.Event{At: m.eng.Now(), Node: r.id, Kind: k})
	}
	if !down {
		return
	}
	m.Stats.Crashes++
	// Truncate the in-flight transmission at every receiver. Only a live
	// (not yet aborted) transmission is cut: if tx.aborted is already set,
	// a previous crash in this same airtime truncated it — its rxEnds are
	// running at crash+prop and some dests may already be freed or reused,
	// so touching them again would corrupt the pools. For a live tx every
	// rxEnd sits at tx.end+prop > now and is still pending; the guards in
	// the loop are belt-and-braces against that invariant shifting.
	if tx := r.curTx; tx != nil && !tx.aborted {
		now := m.eng.Now()
		tx.aborted = true
		for _, p := range tx.dests {
			if p.tx != tx || !p.endEv.Pending() {
				continue
			}
			p.corrupted = true
			p.endEv.Cancel()
			p.endEv = m.eng.ScheduleCall(now+p.prop, p, tagRxEnd)
		}
		if tx.crossed && m.cross != nil {
			m.cross.txAbort(r, tx, now)
		}
	}
	// Poison signals mid-reception at the crashed node.
	for _, p := range r.active {
		p.corrupted = true
	}
	// Drop emitted tones at every listener.
	now := m.eng.Now()
	for t := Tone(0); t < NumTones; t++ {
		if r.crossTone[t] && m.cross != nil {
			r.crossTone[t] = false
			m.cross.toneSet(r, t, false, now)
		}
		sess := r.toneSess[t]
		if sess == nil {
			continue
		}
		r.toneSess[t] = nil
		for i, o := range sess.dests {
			m.eng.ScheduleCall(now+sess.props[i], o, toneOffTag(t))
		}
		m.freeSess(sess)
	}
}

// toneSession records the receivers and delays captured when a tone was
// raised, so the matching off-transition reaches exactly the same set.
type toneSession struct {
	dests []*Radio
	props []sim.Time
}

// Tone transition tags for Radio's sim.Caller dispatch: bit 0 is the
// on/off direction, the remaining bits are the tone index.
func toneOnTag(t Tone) int32  { return int32(t)<<1 | 1 }
func toneOffTag(t Tone) int32 { return int32(t) << 1 }
