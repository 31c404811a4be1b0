// Package fault is the simulator's deterministic impairment layer: a
// Gilbert–Elliott two-state bursty channel-error model plugged into the
// medium's delivery path, and a node-churn schedule that crashes and
// recovers radios mid-run. Both draw every random decision from the
// owning engine's seeded RNG, at points fixed by the engine's event
// order, so a run with a given seed and fault configuration is
// bit-identical across repetitions — the same contract the rest of the
// PHY honours (see package phy's determinism contract).
//
// The layer exists to exercise the paths the paper's clean-channel
// evaluation never reaches: retry exhaustion, backoff growth, busy-tone
// loss, and the protocols' behaviour when a counterpart silently
// disappears mid-handshake.
package fault

import (
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// BurstConfig parameterises the Gilbert–Elliott bursty channel: the
// channel at each receiver alternates between a Good and a Bad state with
// exponentially distributed sojourn times, and frames roll an error
// against the BER of the state the receiver is in at reception end.
type BurstConfig struct {
	// Enabled turns the bursty model on.
	Enabled bool
	// MeanGood and MeanBad are the mean sojourn times of the two states.
	MeanGood sim.Time
	MeanBad  sim.Time
	// BERGood and BERBad are the per-bit error probabilities in each
	// state. The classic Gilbert channel is BERGood = 0.
	BERGood float64
	BERBad  float64
}

// ChurnConfig parameterises node churn: each radio alternates between up
// and crashed with exponentially distributed sojourn times. A crashed
// radio neither transmits nor receives and drops its in-flight PHY state
// (see phy.Medium.SetDown), forcing the MACs' retry/backoff/drop paths.
type ChurnConfig struct {
	// Enabled turns churn on.
	Enabled bool
	// MeanUp and MeanDown are the mean sojourn times of the two states.
	MeanUp   sim.Time
	MeanDown sim.Time
	// SpareSource exempts node 0 — the multicast source in the paper's
	// workloads — from churn, so delivery-ratio curves measure receiver
	// and relay resilience rather than trivially collapsing every time
	// the only traffic generator crashes.
	SpareSource bool
}

// Config bundles the impairment layer's knobs. The zero value disables
// everything.
type Config struct {
	Burst BurstConfig
	Churn ChurnConfig
}

// Enabled reports whether any impairment is switched on.
func (c Config) Enabled() bool { return c.Burst.Enabled || c.Churn.Enabled }

// BurstAt returns a bursty-channel severity level: sev is the long-run
// fraction of time each receiver spends in the Bad state. The Good state
// is clean; Bad-state BER is fixed at 1e-3, which corrupts most control
// frames (~55% at 100 bytes) and nearly all data frames, so sev directly
// controls how much of the timeline is effectively erased. Mean burst
// length is held at 10 ms — a few frame exchanges — so higher sev means
// more frequent bursts, not longer ones. sev = 0 disables the model.
func BurstAt(sev float64) BurstConfig {
	if sev <= 0 {
		return BurstConfig{}
	}
	if sev > 0.9 {
		sev = 0.9
	}
	meanBad := 10 * sim.Millisecond
	meanGood := sim.Time(float64(meanBad) * (1 - sev) / sev)
	return BurstConfig{
		Enabled:  true,
		MeanGood: meanGood,
		MeanBad:  meanBad,
		BERGood:  0,
		BERBad:   1e-3,
	}
}

// ChurnAt returns a churn severity level: avail is the long-run fraction
// of time each (non-spared) node is up. Mean downtime is held at 250 ms —
// long enough to outlive any retry schedule, so a crash reliably costs
// the in-flight exchange — and uptime scales to match the requested
// availability. avail ≥ 1 disables churn.
func ChurnAt(avail float64) ChurnConfig {
	if avail >= 1 {
		return ChurnConfig{}
	}
	if avail < 0.1 {
		avail = 0.1
	}
	meanDown := 250 * sim.Millisecond
	meanUp := sim.Time(float64(meanDown) * avail / (1 - avail))
	return ChurnConfig{
		Enabled:     true,
		MeanUp:      meanUp,
		MeanDown:    meanDown,
		SpareSource: true,
	}
}

// Stats counts what the impairment layer did to a run.
type Stats struct {
	// BurstErrors is the number of frames corrupted by the bursty model.
	BurstErrors uint64
	// BadEntries is the number of Good→Bad transitions across receivers.
	BadEntries uint64
	// Crashes and Recoveries count churn transitions actually applied.
	Crashes    uint64
	Recoveries uint64
}

// Add folds o's counters into s (one shard's injector into a run's total).
func (s *Stats) Add(o Stats) {
	s.BurstErrors += o.BurstErrors
	s.BadEntries += o.BadEntries
	s.Crashes += o.Crashes
	s.Recoveries += o.Recoveries
}

// Injector owns the fault state for one simulation: per-receiver
// Gilbert–Elliott chains and the churn schedule. Create it with New
// after every radio has been added to the medium.
type Injector struct {
	eng *sim.Engine
	med *phy.Medium
	cfg Config

	chains map[*phy.Radio]*geChain

	// Stats accumulates impairment counters across the run.
	Stats Stats
}

// New attaches an impairment layer to the medium. All radios must already
// be registered: radios added later see no burst errors and no churn.
// When the bursty model is enabled, New installs the injector as the
// medium's Impairment; when churn is enabled, it schedules the first
// crash of every non-spared radio. A fully disabled config returns an
// inert injector and leaves the medium untouched.
//
// The churn schedule reschedules itself indefinitely, so a churny
// simulation must be driven with Engine.Run(horizon) — RunAll would
// never drain the queue.
func New(eng *sim.Engine, med *phy.Medium, cfg Config) *Injector {
	inj := &Injector{eng: eng, med: med, cfg: cfg}
	if cfg.Burst.Enabled {
		inj.chains = make(map[*phy.Radio]*geChain, len(med.Radios()))
		for _, r := range med.Radios() {
			inj.chains[r] = &geChain{}
		}
		med.SetImpairment(inj)
	}
	if cfg.Churn.Enabled {
		inj.startChurn()
	}
	return inj
}

// Config returns the configuration the injector was built with.
func (inj *Injector) Config() Config { return inj.cfg }
