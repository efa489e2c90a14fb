package metrics

import "testing"

// TestWallClockDeterministicSource pins the wall clock's unit conversion:
// Now() is the injected monotonic nanosecond reading scaled so that
// Now()/VirtualSecond equals elapsed real seconds, independent of counted
// work.
func TestWallClockDeterministicSource(t *testing.T) {
	var ns int64
	k := NewWallClockFunc(func() int64 { return ns })
	if !k.Wall() {
		t.Fatal("Wall() false on a wall clock")
	}
	if k.Now() != 0 {
		t.Fatalf("Now() = %g at t=0", k.Now())
	}
	ns = 500e6 // 0.5 real seconds
	if got, want := k.Now(), 0.5*VirtualSecond; got != want {
		t.Fatalf("Now() = %g, want %g", got, want)
	}
	if got := k.Now() / VirtualSecond; got != 0.5 {
		t.Fatalf("Now()/VirtualSecond = %g, want 0.5", got)
	}
}

// TestWallClockSeparatesWorkFromTime: counted operations advance
// WorkUnits() but never Now() in wall mode; in virtual mode the two remain
// the same quantity.
func TestWallClockSeparatesWorkFromTime(t *testing.T) {
	var ns int64
	k := NewWallClockFunc(func() int64 { return ns })
	k.CountJoinResult(100) // 100 * 20 deci = 2000 deci = 200 units
	if k.Now() != 0 {
		t.Fatalf("counted work moved the wall clock: Now() = %g", k.Now())
	}
	if got := k.WorkUnits(); got != 200 {
		t.Fatalf("WorkUnits() = %g, want 200", got)
	}

	v := NewClock()
	if v.Wall() {
		t.Fatal("Wall() true on the virtual clock")
	}
	v.CountJoinResult(100)
	if v.Now() != v.WorkUnits() {
		t.Fatalf("virtual clock: Now() %g != WorkUnits() %g", v.Now(), v.WorkUnits())
	}
}

// TestRealWallClockAdvances: the default time source is monotonic and
// NewWallClockFunc(nil) falls back to it.
func TestRealWallClockAdvances(t *testing.T) {
	for _, k := range []*Clock{NewWallClock(), NewWallClockFunc(nil)} {
		if !k.Wall() {
			t.Fatal("Wall() false")
		}
		a := k.Now()
		for i := 0; i < 1000; i++ {
			if b := k.Now(); b < a {
				t.Fatalf("wall clock went backwards: %g then %g", a, b)
			} else {
				a = b
			}
		}
	}
}
