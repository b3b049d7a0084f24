package server

import (
	"errors"
	"sync"
	"time"

	"projpush/internal/engine"
)

// breaker is a per-method circuit breaker over the direct execution
// path. Repeated infrastructure-class failures — worker panics
// (ErrInternal) and memory-budget blowups (ErrMemLimit) — trip it open;
// while open, requests for the method skip the direct path and run on
// the degradation ladder instead, whose rungs re-plan with safer methods
// and a sequential executor. After a cooldown the breaker goes half-open
// and lets one trial request back onto the direct path; success closes
// it, failure re-opens it for another cooldown.
//
// Resource verdicts that are properties of the query rather than the
// infrastructure (row caps on a genuinely explosive plan, timeouts,
// cancellations) do not count toward tripping: they would open the
// breaker on workload shape, not on system health.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures to trip (<=0 disables)
	cooldown  time.Duration // open duration before half-open
	now       func() time.Time

	failures int
	state    breakerState
	openedAt time.Time
	probing  bool // a half-open trial is in flight
}

type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allowDirect reports whether the next request may take the direct
// execution path. While open (cooldown not yet elapsed) it returns
// false; once the cooldown elapses it admits exactly one trial request
// (half-open) until that trial reports its outcome.
func (b *breaker) allowDirect() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports a direct-path outcome. Only ErrInternal and ErrMemLimit
// count as breaker failures; any other outcome (success included) resets
// the failure streak and closes the breaker.
func (b *breaker) record(err error) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if err != nil && (errors.Is(err, engine.ErrInternal) || errors.Is(err, engine.ErrMemLimit)) {
		b.failures++
		if b.failures >= b.threshold || b.state == breakerHalfOpen {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
		return
	}
	b.failures = 0
	b.state = breakerClosed
}

// settle records the outcome of a request allowDirect admitted. Defer
// it right after the claim: it runs on every exit path, and a panic
// unwinding the request counts as ErrInternal (and keeps unwinding to
// the request's recover scope), so a half-open trial claim cannot leak
// and leave the method off its direct path for good.
func (b *breaker) settle(outcome *error) {
	if r := recover(); r != nil {
		b.record(engine.ErrInternal)
		panic(r)
	}
	b.record(*outcome)
}

// status renders the current state for the health endpoint.
func (b *breaker) status() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return breakerHalfOpen.String()
	}
	return b.state.String()
}
