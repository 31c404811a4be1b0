package sim

import "math/bits"

// TimerStats is the per-horizon timer census: how far ahead events are
// scheduled, where the scheduler placed them (heap because already due,
// wheel level 0, wheel level 1, heap overflow beyond the wheel horizon),
// and where cancels found them. It exists to verify that the timing wheel
// actually absorbs the short-horizon, cancel-heavy timer classes
// (SIFS/DIFS gaps, backoff slots, RMAC's busy-tone windows) and to guide
// future slot-width tuning. Enable with Engine.EnableTimerStats; disabled
// it costs one nil check per schedule/cancel.
type TimerStats struct {
	// Scheduled counts schedules by ⌈log2⌉ bucket of the delay: bucket b
	// holds deltas in [2^(b-1), 2^b) ns, bucket 0 holds delta 0.
	Scheduled [statsBuckets]uint64
	// Cancelled counts cancels by the same bucketing of the *remaining*
	// delay at cancel time (how far before its deadline the event died).
	Cancelled [statsBuckets]uint64
	// Placed counts schedules by placement class (PlaceDue..PlaceOverflow).
	Placed [placeClasses]uint64
	// CancelledIn counts cancels by where the event was found: in a wheel
	// slot (O(1) unlink) or already in the heap (O(log n) removal).
	CancelledIn [2]uint64
}

// Placement classes for TimerStats.Placed.
const (
	placeDue      = iota // due within the already-flushed frontier slot → heap
	placeL0              // wheel level 0 (≤ ~65 µs ahead)
	placeL1              // wheel level 1 (≤ ~67 ms ahead)
	placeOverflow        // beyond the wheel horizon → heap
	placeClasses
)

// Cancel location classes for TimerStats.CancelledIn.
const (
	cancelledInWheel = iota
	cancelledInHeap
)

// statsBuckets covers log2 deltas up to 2^47 ns ≈ 39 hours, far beyond
// any run horizon; larger deltas clamp into the last bucket.
const statsBuckets = 48

// PlaceClassName names a TimerStats.Placed index for reports.
func PlaceClassName(i int) string {
	switch i {
	case placeDue:
		return "due (frontier slot, heap)"
	case placeL0:
		return "wheel L0 (≤65µs)"
	case placeL1:
		return "wheel L1 (≤67ms)"
	case placeOverflow:
		return "overflow (>67ms, heap)"
	}
	return "?"
}

// CancelClassName names a TimerStats.CancelledIn index for reports.
func CancelClassName(i int) string {
	if i == cancelledInWheel {
		return "in wheel (O(1) unlink)"
	}
	return "in heap (O(log n) removal)"
}

// PlaceClassLabel is the machine-readable form of PlaceClassName, used
// as the metric label value for TimerStats.Placed index i.
func PlaceClassLabel(i int) string {
	switch i {
	case placeDue:
		return "due"
	case placeL0:
		return "wheel_l0"
	case placeL1:
		return "wheel_l1"
	case placeOverflow:
		return "overflow"
	}
	return "?"
}

// CancelClassLabel is the machine-readable form of CancelClassName, used
// as the metric label value for TimerStats.CancelledIn index i.
func CancelClassLabel(i int) string {
	if i == cancelledInWheel {
		return "wheel"
	}
	return "heap"
}

// NumPlaceClasses and NumCancelClasses size per-class metric families.
const (
	NumPlaceClasses  = placeClasses
	NumCancelClasses = 2
)

// BucketRange describes bucket b's delta range in nanoseconds.
func BucketRange(b int) (lo, hi Time) {
	if b == 0 {
		return 0, 0
	}
	return Time(1) << (b - 1), Time(1)<<b - 1
}

func bucketOf(delta Time) int {
	b := bits.Len64(uint64(delta))
	if b >= statsBuckets {
		b = statsBuckets - 1
	}
	return b
}

func (s *TimerStats) place(class int, delta Time) {
	s.Scheduled[bucketOf(delta)]++
	s.Placed[class]++
}

// cancel records a cancel found at heap position pos (posWheel for a
// wheel-slot resident, posDue for the due list — both O(1) unlinks) with
// the given remaining delay.
func (s *TimerStats) cancel(pos int32, remaining Time) {
	s.Cancelled[bucketOf(remaining)]++
	if pos == posWheel || pos == posDue {
		s.CancelledIn[cancelledInWheel]++
	} else {
		s.CancelledIn[cancelledInHeap]++
	}
}

// Add folds o's census into s (one shard's engine into a run's total).
func (s *TimerStats) Add(o *TimerStats) {
	for i, v := range o.Scheduled {
		s.Scheduled[i] += v
	}
	for i, v := range o.Cancelled {
		s.Cancelled[i] += v
	}
	for i, v := range o.Placed {
		s.Placed[i] += v
	}
	for i, v := range o.CancelledIn {
		s.CancelledIn[i] += v
	}
}

// TotalScheduled sums the schedule census.
func (s *TimerStats) TotalScheduled() uint64 {
	var t uint64
	for _, v := range s.Scheduled {
		t += v
	}
	return t
}

// TotalCancelled sums the cancel census.
func (s *TimerStats) TotalCancelled() uint64 {
	var t uint64
	for _, v := range s.Cancelled {
		t += v
	}
	return t
}

// EnableTimerStats attaches (and returns) a timer census to the engine.
// Enable it before the run starts; the census is purely observational and
// never perturbs event order.
func (e *Engine) EnableTimerStats() *TimerStats {
	if e.tstats == nil {
		e.tstats = &TimerStats{}
	}
	return e.tstats
}
