package retry

import "time"

// Clock abstracts the passage of time for components that wait: the
// transport's injected network delay, the object store's simulated PUT
// latency, the broker's per-append storage cost, and the stream thread's
// idle poll all sleep through a Clock instead of calling time.Sleep
// directly (kslint's wallclock rule enforces this). Routing every wait
// through one seam keeps fault-injection timing deterministic: a test can
// substitute a virtual clock and observe or collapse the schedule without
// the components knowing.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d (no-op for d <= 0).
	Sleep(d time.Duration)
	// After returns a channel that fires once d has elapsed, for waits
	// that must also select on a cancellation signal.
	After(d time.Duration) <-chan time.Time
}

// Wall is the real wall clock and the default everywhere a Clock is
// injectable.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Or returns c, or Wall when c is nil — the idiom for optional Clock
// config fields.
func Or(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}
