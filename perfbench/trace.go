package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"rmac/internal/app"
	"rmac/internal/audit"
	"rmac/internal/experiment"
	"rmac/internal/fault"
	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mac"
	"rmac/internal/mac/bmmm"
	"rmac/internal/mac/rmac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/routing"
	"rmac/internal/sim"
)

// The traced run rebuilds the single-engine stack of experiment.Run from
// the layers' public constructors and puts a timing span at every call
// boundary between them. Spans nest (a MAC handler delivers to the app,
// which sends through the MAC), so each boundary gets its inclusive time
// and its self time: inclusive minus the time of the spans it contains.

// Boundaries the traced run wraps.
const (
	spanHandler  = iota // phy.Handler: PHY indications into the MAC
	spanSend            // mac.MAC.Send: routing and app into the MAC
	spanBeacon          // mac.UpperLayer.OnDeliver of a beacon: MAC into routing
	spanDeliver         // mac.UpperLayer.OnDeliver of data: MAC into the app
	spanObs             // phy.Observer: medium into the auditor
	spanPosition        // mobility.Model.PositionAt of a moving node
	numSpans
)

// spanAgg aggregates one boundary's spans.
type spanAgg struct {
	count uint64
	total time.Duration // inclusive
	self  time.Duration // inclusive minus nested spans
	hist  [64]uint64    // inclusive ns; bucket i holds [2^(i-1), 2^i)
}

// quantile estimates the q-quantile of the inclusive span time in ns,
// interpolating linearly inside the log2 bucket that holds it.
func (a *spanAgg) quantile(q float64) float64 {
	if a.count == 0 {
		return 0
	}
	rank := q * float64(a.count)
	var seen float64
	for i, c := range a.hist {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

// tracer collects spans of one simulation goroutine.
type tracer struct {
	spans [numSpans]spanAgg
	open  []time.Duration // per open span: time of the spans nested in it
	root  time.Duration   // inclusive time of outermost spans
}

func (t *tracer) begin() time.Time {
	t.open = append(t.open, 0)
	return time.Now()
}

func (t *tracer) end(kind int, start time.Time) {
	d := time.Since(start)
	n := len(t.open) - 1
	nested := t.open[n]
	t.open = t.open[:n]
	s := &t.spans[kind]
	s.count++
	s.total += d
	s.self += d - nested
	s.hist[bits.Len64(uint64(d))]++
	if n > 0 {
		t.open[n-1] += d
	} else {
		t.root += d
	}
}

func (t *tracer) merge(o *tracer) {
	for k := range t.spans {
		a, b := &t.spans[k], &o.spans[k]
		a.count += b.count
		a.total += b.total
		a.self += b.self
		for i := range a.hist {
			a.hist[i] += b.hist[i]
		}
	}
	t.root += o.root
}

type handlerSpan struct {
	t *tracer
	h phy.Handler
}

func (s handlerSpan) OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time) {
	st := s.t.begin()
	s.h.OnFrameReceived(f, ok, rxStart)
	s.t.end(spanHandler, st)
}

func (s handlerSpan) OnCarrierChange(busy bool) {
	st := s.t.begin()
	s.h.OnCarrierChange(busy)
	s.t.end(spanHandler, st)
}

func (s handlerSpan) OnToneChange(tone phy.Tone, sensed bool) {
	st := s.t.begin()
	s.h.OnToneChange(tone, sensed)
	s.t.end(spanHandler, st)
}

func (s handlerSpan) OnTxDone(f frame.Frame) {
	st := s.t.begin()
	s.h.OnTxDone(f)
	s.t.end(spanHandler, st)
}

// macSpan is the MAC as routing and the app see it: Send is timed, and
// SetUpper installs a timed upper layer on the real MAC.
type macSpan struct {
	mac.MAC
	t *tracer
}

func (m macSpan) Send(req *mac.SendRequest) bool {
	st := m.t.begin()
	ok := m.MAC.Send(req)
	m.t.end(spanSend, st)
	return ok
}

func (m macSpan) SetUpper(u mac.UpperLayer) { m.MAC.SetUpper(upperSpan{t: m.t, u: u}) }

// upperSpan splits deliveries by payload type: beacons are routing's work,
// data is the app's (including its ChildrenInto query and forward).
type upperSpan struct {
	t *tracer
	u mac.UpperLayer
}

func (s upperSpan) OnDeliver(payload []byte, info mac.RxInfo) {
	kind := spanDeliver
	if len(payload) > 0 && payload[0] == routing.BeaconMagic {
		kind = spanBeacon
	}
	st := s.t.begin()
	s.u.OnDeliver(payload, info)
	s.t.end(kind, st)
}

func (s upperSpan) OnSendComplete(res mac.TxResult) { s.u.OnSendComplete(res) }

type obsSpan struct {
	t *tracer
	o phy.Observer
}

func (s obsSpan) ObsTxStart(r *phy.Radio, f frame.Frame) {
	st := s.t.begin()
	s.o.ObsTxStart(r, f)
	s.t.end(spanObs, st)
}

func (s obsSpan) ObsTxEnd(r *phy.Radio, f frame.Frame) {
	st := s.t.begin()
	s.o.ObsTxEnd(r, f)
	s.t.end(spanObs, st)
}

func (s obsSpan) ObsTxAbort(r *phy.Radio, f frame.Frame) {
	st := s.t.begin()
	s.o.ObsTxAbort(r, f)
	s.t.end(spanObs, st)
}

func (s obsSpan) ObsRxEnd(r, src *phy.Radio, f frame.Frame, ok, sensed bool) {
	st := s.t.begin()
	s.o.ObsRxEnd(r, src, f, ok, sensed)
	s.t.end(spanObs, st)
}

func (s obsSpan) ObsToneSet(r *phy.Radio, tone phy.Tone, on bool) {
	st := s.t.begin()
	s.o.ObsToneSet(r, tone, on)
	s.t.end(spanObs, st)
}

func (s obsSpan) ObsDown(r *phy.Radio, down bool) {
	st := s.t.begin()
	s.o.ObsDown(r, down)
	s.t.end(spanObs, st)
}

// positionSpan wraps a moving node's model. Stationary models are left
// bare: the medium caches their position only when it can see the
// mobility.Stationary type, so wrapping them would change the program.
type positionSpan struct {
	t *tracer
	m mobility.Model
}

func (s positionSpan) PositionAt(at sim.Time) geom.Point {
	st := s.t.begin()
	p := s.m.PositionAt(at)
	s.t.end(spanPosition, st)
	return p
}

// tracedRun is one traced simulation's outcome.
type tracedRun struct {
	t       tracer
	runTime time.Duration // engine Run call
	events  uint64
	totals  experiment.RunTotals
	metrics app.Metrics
	viol    uint64
}

// runTraced builds cfg's network with spans at every boundary and runs it.
// cfg must be a valid single-engine configuration of an RMAC or BMMM run.
func runTraced(cfg experiment.Config) (tr *tracedRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced run panicked: %v", r)
		}
	}()
	tr = &tracedRun{metrics: app.Metrics{Nodes: cfg.Nodes}}
	t := &tr.t
	eng := sim.NewEngine(cfg.Seed)
	medium := phy.NewMedium(eng, cfg.Phy)
	pl := placement(cfg)
	k := cfg.Sources
	if k < 1 {
		k = 1
	}
	isRoot := make(map[int]bool, k)
	for d := 0; d < k; d++ {
		isRoot[d*cfg.Nodes/k] = true
	}
	var aud *audit.Auditor
	if cfg.Audit {
		aud = audit.New(eng, medium, audit.Config{
			MaxFrameAirtime: cfg.Phy.TxDuration(frame.RMACDataOverhead + cfg.PacketSize + 64),
		})
		medium.Obs = obsSpan{t: t, o: aud}
	}
	macs := make([]mac.MAC, cfg.Nodes)
	apps := make([]*app.Node, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		var mob mobility.Model = mobility.Stationary{P: pl.Points[i]}
		if cfg.Scenario != experiment.Stationary {
			nodeRNG := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
			mob = positionSpan{t: t, m: mobility.NewRandomWaypoint(cfg.Field, 0, cfg.Scenario.MaxSpeed(), cfg.Scenario.Pause(), pl.Points[i], nodeRNG)}
		}
		radio := medium.AddRadio(i, mob)
		var m mac.MAC
		switch cfg.Protocol {
		case experiment.RMAC:
			m = rmac.NewWithOptions(radio, cfg.Phy, eng, cfg.Limits, cfg.RMACOptions)
		case experiment.BMMM:
			m = bmmm.New(radio, cfg.Phy, eng, cfg.Limits)
		default:
			return nil, fmt.Errorf("traced run supports RMAC and BMMM, not %v", cfg.Protocol)
		}
		radio.SetHandler(handlerSpan{t: t, h: m.(phy.Handler)})
		wrapped := macSpan{MAC: m, t: t}
		rt := routing.New(eng, wrapped, i, isRoot[i], cfg.Routing)
		a := app.NewNode(eng, wrapped, rt, i, &tr.metrics)
		rt.Start()
		if aud != nil {
			aud.RegisterMAC(i, m)
			if s, ok := m.(interface{ SetAuditor(*audit.Auditor) }); ok {
				s.SetAuditor(aud)
			}
			wrapped.SetUpper(aud.WrapUpper(i, a))
		}
		macs[i], apps[i] = m, a
	}
	for d := 0; d < k; d++ {
		s := app.NewSource(apps[d*cfg.Nodes/k], cfg.Rate, cfg.Packets, cfg.PacketSize)
		s.Start(cfg.Warmup)
	}
	fault.New(eng, medium, cfg.Fault)
	eng.QuiesceAudit = func() {
		if aud != nil {
			aud.Quiesce()
		}
	}

	start := time.Now()
	eng.Run(cfg.Horizon())
	tr.runTime = time.Since(start)
	if len(t.open) != 0 {
		return nil, fmt.Errorf("traced run ended with %d open spans", len(t.open))
	}
	tr.events = eng.Processed
	tot := &tr.totals
	for _, m := range macs {
		s := m.Stats()
		tot.Enqueued += s.Enqueued
		tot.QueueDrops += s.QueueDrops
		tot.ReliableToTransmit += s.ReliableToTransmit
		tot.ReliableDelivered += s.ReliableDelivered
		tot.Retransmissions += s.Retransmissions
		tot.Drops += s.Drops
		tot.UnreliableSent += s.UnreliableSent
		tot.MRTSSent += s.MRTSSent
		tot.MRTSAborted += s.MRTSAborted
		tot.ABTSent += s.ABTSent
	}
	tot.Medium = medium.Stats
	tot.FramePool = medium.Frames().Stats()
	tot.ArenaCap = eng.ArenaCap()
	tot.ArenaLive = eng.PoolInUse()
	tot.Generated = tr.metrics.Generated
	tot.Receptions = tr.metrics.Receptions
	tot.Duplicates = tr.metrics.Duplicates
	if aud != nil {
		tot.ViolationsByClass = aud.ByClass
		tr.viol = aud.Count
	}
	return tr, nil
}

// matches reports how the traced run differs from the untraced
// experiment.Run of the same configuration, or "" when it reproduces its
// event count, every RunTotals counter, the app metrics and the audit
// count.
func (tr *tracedRun) matches(r *experiment.RunResult) string {
	switch {
	case tr.events != r.Events:
		return fmt.Sprintf("events %d, untraced %d", tr.events, r.Events)
	case tr.totals != r.Totals:
		return fmt.Sprintf("totals %+v, untraced %+v", tr.totals, r.Totals)
	case tr.metrics != r.Metrics:
		return fmt.Sprintf("app metrics %+v, untraced %+v", tr.metrics, r.Metrics)
	case tr.viol != r.ViolationCount:
		return fmt.Sprintf("violations %d, untraced %d", tr.viol, r.ViolationCount)
	}
	return ""
}
