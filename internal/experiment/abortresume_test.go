package experiment

import (
	"context"
	"testing"
)

// TestAbortResumeReleasesFrames is the wheel/abort interaction regression
// on top of the full protocol stack: a run aborted mid-traffic — wheel
// slots, due list and heap all populated, pooled frames in flight — must,
// once the watchdog is disarmed, resume into exactly the run an
// uninterrupted engine produces: identical metrics fingerprint and
// identical frame-pool accounting (every pooled frame released exactly
// once, never twice, never leaked). Under `-tags framecheck` (the CI
// poisoning build) any use-after-release the abort path provokes fails
// loudly here.
func TestAbortResumeReleasesFrames(t *testing.T) {
	for _, proto := range []Protocol{RMAC, BMMM} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Protocol = proto
			// The invariant auditor is detached: the comparison pins the
			// protocol stack's resume, not the auditor's.
			cfg.Audit = false
			cancelAt := cfg.Horizon() / 2

			clean := build(cfg)
			clean.eng.After(cancelAt, func() {}) // mirrors the ctx run's cancel trigger
			clean.eng.Run(cfg.Horizon())
			want := reduce(cfg, []*stack{clean})
			wantFrames := clean.medium.Frames().Stats()
			if want.Aborted {
				t.Fatalf("clean run aborted: %s", want.AbortReason)
			}

			// Variant 1: event-budget abort mid-run, then resume.
			n := build(cfg)
			n.eng.After(cancelAt, func() {})
			n.eng.SetWatchdog(want.Events/2, 0)
			n.eng.Run(cfg.Horizon())
			if _, aborted := n.eng.Aborted(); !aborted {
				t.Fatal("event budget did not abort the run")
			}
			if n.eng.Pending() == 0 {
				t.Fatal("abort left nothing pending; not a mid-cascade abort")
			}
			n.eng.SetWatchdog(0, 0)
			n.eng.Run(cfg.Horizon())
			got := reduce(cfg, []*stack{n})
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("resumed run diverged from uninterrupted run:\n got %s\nwant %s",
					got.Fingerprint(), want.Fingerprint())
			}
			if gotFrames := n.medium.Frames().Stats(); gotFrames != wantFrames {
				t.Errorf("frame pool accounting diverged after abort/resume:\n got %+v\nwant %+v",
					gotFrames, wantFrames)
			}

			// Variant 2: context cancellation mid-run, then resume.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := build(cfg)
			c.eng.SetContext(ctx)
			c.eng.After(cancelAt, cancel)
			c.eng.Run(cfg.Horizon())
			if _, aborted := c.eng.Aborted(); !aborted {
				t.Fatal("mid-run context cancel did not abort")
			}
			c.eng.SetContext(nil)
			c.eng.SetWatchdog(0, 0)
			c.eng.Run(cfg.Horizon())
			got = reduce(cfg, []*stack{c})
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("ctx-aborted resumed run diverged from uninterrupted run:\n got %s\nwant %s",
					got.Fingerprint(), want.Fingerprint())
			}
			if gotFrames := c.medium.Frames().Stats(); gotFrames != wantFrames {
				t.Errorf("frame pool accounting diverged after ctx abort/resume:\n got %+v\nwant %+v",
					gotFrames, wantFrames)
			}
		})
	}
}
