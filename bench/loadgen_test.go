package main

import (
	"testing"
	"time"
)

// The schedule is computed from the arrival's index, so it cannot drift:
// arrival k of a 1,200/s schedule is due at exactly k/1200 s however large k.
func TestDueOffsetDoesNotDrift(t *testing.T) {
	if got := dueOffset(0, 1200); got != 0 {
		t.Errorf("arrival 0 due at %v, want 0", got)
	}
	if got := dueOffset(1200, 1200); got != time.Second {
		t.Errorf("arrival 1200 at 1200/s due at %v, want 1s", got)
	}
	if got := dueOffset(3, 1000); got != 3*time.Millisecond {
		t.Errorf("arrival 3 at 1000/s due at %v, want 3ms", got)
	}
	// An hour in: still exact to the nanosecond where the rate divides it.
	if got := dueOffset(150*3600, 150); got != time.Hour {
		t.Errorf("arrival %d at 150/s due at %v, want 1h", 150*3600, got)
	}
	// A rate whose interval is not a whole number of nanoseconds: summing a
	// rounded interval would be off by k*rounding; the index form is off by
	// at most one.
	rate := 1200.0
	interval := time.Duration(float64(time.Second) / rate)
	k := 1_000_000
	exact := time.Duration(float64(k) / rate * float64(time.Second))
	if d := dueOffset(k, rate) - exact; d < -1 || d > 1 {
		t.Errorf("arrival %d off by %v", k, d)
	}
	if drift := time.Duration(k)*interval - exact; drift > -time.Millisecond/10 && drift < time.Millisecond/10 {
		t.Errorf("test premise: an accumulated interval should have drifted, got %v", drift)
	}
	prev := time.Duration(-1)
	for i := 0; i < 5000; i++ {
		d := dueOffset(i, rate)
		if d <= prev {
			t.Fatalf("schedule not increasing at arrival %d: %v after %v", i, d, prev)
		}
		prev = d
	}
}

func TestArrivals(t *testing.T) {
	if got := arrivals(1200, 2500*time.Millisecond); got != 3000 {
		t.Errorf("arrivals(1200/s, 2.5s) = %d, want 3000", got)
	}
	if got := arrivals(150, 0); got != 0 {
		t.Errorf("arrivals over no time = %d, want 0", got)
	}
	// The last arrival is due before the phase ends.
	n := arrivals(150, 4*time.Second)
	if last := dueOffset(n-1, 150); last >= 4*time.Second {
		t.Errorf("last arrival due at %v, at or past the end", last)
	}
}
