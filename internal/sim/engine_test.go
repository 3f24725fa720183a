package sim

import (
	"testing"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order broken at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEnginePastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.At(100, func() {
		e.At(10, func() { at = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", at)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++; e.Stop() })
	e.At(2, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

// TestEngineRunFor splits a run at a window end: runWindow fires only the
// events before it and leaves the clock at the last one fired, not at the
// window's end; a following Run fires the rest.
func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	if err := e.runWindow(26); err != nil {
		t.Fatalf("runWindow: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20 (the last fired event)", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 4 {
		t.Fatalf("after full Run fired %v, want all 4", fired)
	}
}

// TestEngineRunForReentrancyGuard checks that neither runWindow nor Run
// may be entered from inside a running window.
func TestEngineRunForReentrancyGuard(t *testing.T) {
	e := NewEngine()
	var inner, innerRun error
	e.At(1, func() {
		inner = e.runWindow(11)
		innerRun = e.Run()
	})
	if err := e.runWindow(6); err != nil {
		t.Fatalf("runWindow: %v", err)
	}
	if inner == nil {
		t.Fatal("reentrant runWindow did not error")
	}
	if innerRun == nil {
		t.Fatal("Run inside runWindow did not error")
	}
}

// TestEngineRunForHonoursStop checks that Stop ends a window early, with
// the clock frozen at the stop point and later events still queued.
func TestEngineRunForHonoursStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++; e.Stop() })
	e.At(2, func() { ran++ })
	if err := e.runWindow(11); err != nil {
		t.Fatalf("runWindow: %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if e.Now() != 1 {
		t.Fatalf("Now = %v after Stop, want 1", e.Now())
	}
}

// TestEngineRunForNoDeadlockWithFutureWakeup checks that a window ending
// before a parked coro's wakeup is no deadlock, and that Run then
// finishes the coro.
func TestEngineRunForNoDeadlockWithFutureWakeup(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("sleeper", func(c *Coro) { c.Sleep(1000) })
	c.Start(0)
	if err := e.runWindow(11); err != nil {
		t.Fatalf("runWindow: %v", err)
	}
	if e.Live() != 1 {
		t.Fatalf("Live = %d after the window, want 1 (no wind-down)", e.Live())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestEngineRunForSurfacesCoroFailure checks that a coro's panic inside a
// window is runWindow's error.
func TestEngineRunForSurfacesCoroFailure(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("boom", func(c *Coro) { panic("kaboom") })
	c.Start(5)
	err := e.runWindow(11)
	if err == nil {
		t.Fatal("runWindow returned nil despite coro panic")
	}
	// Unwind for goroutine hygiene.
	_ = e.Run()
}

func TestCoroSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var seen []Time
	c := e.Spawn("sleeper", func(c *Coro) {
		seen = append(seen, c.Now())
		c.Sleep(100)
		seen = append(seen, c.Now())
		c.Sleep(0)
		seen = append(seen, c.Now())
	})
	c.Start(10)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{10, 110, 110}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("times = %v, want %v", seen, want)
		}
	}
	if !c.Done() {
		t.Fatal("coro not done")
	}
}

func TestCoroParkUnpark(t *testing.T) {
	e := NewEngine()
	var wokeAt Time
	sleeper := e.Spawn("sleeper", func(c *Coro) {
		c.Park()
		wokeAt = c.Now()
	})
	waker := e.Spawn("waker", func(c *Coro) {
		c.Sleep(500)
		sleeper.Unpark(25)
	})
	sleeper.Start(0)
	waker.Start(0)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 525 {
		t.Fatalf("woke at %v, want 525", wokeAt)
	}
}

func TestUnparkNonParkedPanics(t *testing.T) {
	e := NewEngine()
	var recovered interface{}
	c := e.Spawn("c", func(c *Coro) { c.Sleep(10) })
	e.At(0, func() {
		defer func() { recovered = recover() }()
		c.Unpark(0)
	})
	c.Start(5)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recovered == nil {
		t.Fatal("Unpark of non-parked coro did not panic")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("stuck", func(c *Coro) { c.Park() })
	c.Start(0)
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil for a parked-forever coro")
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Run, want 0 (shutdown must unwind)", e.Live())
	}
}

func TestCoroPanicSurfacesAsError(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("boom", func(c *Coro) {
		c.Sleep(5)
		panic("kaboom")
	})
	c.Start(0)
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil despite coro panic")
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

func TestShutdownUnwindsUnstartedCoro(t *testing.T) {
	e := NewEngine()
	_ = e.Spawn("never-started", func(c *Coro) { c.Sleep(1) })
	// No events at all: Run must still unwind the spawned goroutine.
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error for never-started coro")
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

func TestDoubleStartPanics(t *testing.T) {
	e := NewEngine()
	c := e.Spawn("c", func(c *Coro) {})
	c.Start(0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
		// Unwind the spawned goroutine.
		_ = e.Run()
	}()
	c.Start(0)
}

func TestManyCorosInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			c := e.Spawn("w", func(c *Coro) {
				for j := 0; j < 5; j++ {
					c.Sleep(Time(10 + i))
					log = append(log, string(rune('a'+i))+string(rune('0'+j)))
				}
			})
			c.Start(Time(i))
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 40 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
