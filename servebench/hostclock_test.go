package main

import (
	"testing"
	"time"
)

// The factor is refTick over the mean timed tick, and 1 with no ticks.
func TestHostClockFactor(t *testing.T) {
	var h hostClock
	if f := h.factor(); f != 1 {
		t.Errorf("factor with no ticks = %v, want 1", f)
	}
	h.timed, h.n = 4*refTick, 2
	if f := h.factor(); f != 0.5 {
		t.Errorf("factor at half speed = %v, want 0.5", f)
	}
	if got := scale(10*time.Millisecond, 0.5); got != 5*time.Millisecond {
		t.Errorf("scale = %v, want 5ms", got)
	}
}

// Ticks echo over the loopback connection, add up their time, reset to
// zero, and close ends the echo goroutine.
func TestHostClockTicks(t *testing.T) {
	h, err := newHostClock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.tick(); err != nil {
			t.Fatal(err)
		}
	}
	if h.n != 3 || h.timed <= 0 || h.wall < h.timed || h.factor() <= 0 {
		t.Errorf("after 3 ticks: n %d, timed %v, wall %v, factor %v", h.n, h.timed, h.wall, h.factor())
	}
	h.reset()
	if h.n != 0 || h.timed != 0 || h.wall != 0 || h.cpu != 0 {
		t.Errorf("after reset: %+v", h)
	}
	if err := h.tick(); err != nil {
		t.Fatalf("tick after reset: %v", err)
	}
	h.close()
	select {
	case <-h.echoed:
	default:
		t.Error("echo goroutine still running after close")
	}
}
