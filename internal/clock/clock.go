// Package clock abstracts time for the service tier. Every
// time-dependent behaviour of the middleware — rate-limit refill, the
// periodic retrain and snapshot loops, job-poll deadlines — reads time through a Clock instead of the time
// package, so tests (and the loadgen soak harness) can step a Manual
// clock deterministically instead of sleeping on the wall clock.
//
// Production code uses System(), which delegates to the time package.
// Tests use NewManual(start): Advance moves virtual time forward and
// fires due tickers and timers in timestamp order, and BlockUntil lets
// a test wait until the code under test has registered its waiters
// (e.g. the retrain loop's ticker) before stepping.
package clock

import "time"

// Clock is the time source of the service tier.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// After returns a channel that delivers the (virtual) time once,
	// d from now. A non-positive d delivers immediately.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed. Non-positive d returns
	// immediately.
	Sleep(d time.Duration)
	// NewTicker returns a ticker firing every d. Like time.NewTicker it
	// panics when d <= 0. Ticks are dropped, not queued, when the
	// receiver is slow (channel capacity 1).
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-agnostic form of *time.Ticker.
type Ticker interface {
	// C returns the tick channel.
	C() <-chan time.Time
	// Stop stops the ticker. It does not close the channel.
	Stop()
}

// System returns the real clock, backed by the time package.
func System() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (systemClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (systemClock) NewTicker(d time.Duration) Ticker       { return systemTicker{time.NewTicker(d)} }

type systemTicker struct{ t *time.Ticker }

func (t systemTicker) C() <-chan time.Time { return t.t.C }
func (t systemTicker) Stop()               { t.t.Stop() }
