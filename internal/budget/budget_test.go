package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilCheckerNeverTrips(t *testing.T) {
	var c *Checker
	if c.Active() {
		t.Fatal("nil checker active")
	}
	for i := 0; i < 10_000; i++ {
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.Sequences(1 << 30); err != nil {
		t.Fatal(err)
	}
}

func TestNewCheckerUnlimitedIsNil(t *testing.T) {
	if c := NewChecker(context.Background(), Limits{}); c != nil {
		t.Fatal("background context with zero limits should yield a nil checker")
	}
	if c := NewChecker(nil, Limits{}); c != nil {
		t.Fatal("nil context with zero limits should yield a nil checker")
	}
	if c := NewChecker(context.Background(), Limits{MaxSequences: 5}); c == nil {
		t.Fatal("sequence limit should yield an active checker")
	}
}

func TestDeadlineIsMonotonicDuration(t *testing.T) {
	// The checker converts deadlines to a duration from its start once,
	// then enforces them with time.Since (monotonic): a context deadline
	// far in the wall-clock past trips immediately, and the internal
	// budget is a duration, not a wall-clock instant a time jump could
	// move.
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	c := NewChecker(past, Limits{Wall: time.Hour})
	if !c.hasWall || c.wall >= 0 {
		t.Fatalf("expired context deadline should yield a negative wall budget, got %v", c.wall)
	}
	err := c.CheckNow()
	if be, ok := AsError(err); !ok || be.Resource != ResourceWallClock {
		t.Fatalf("want wall-clock trip, got %v", err)
	}

	// The tighter of Limits.Wall and the context deadline wins, again as
	// a duration.
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	c = NewChecker(ctx, Limits{Wall: time.Minute})
	if c.wall != time.Minute {
		t.Fatalf("want the 1m limit to win, got %v", c.wall)
	}
	c = NewChecker(ctx, Limits{Wall: 2 * time.Hour})
	if c.wall > time.Hour || c.wall < 59*time.Minute {
		t.Fatalf("want ~1h context deadline to win, got %v", c.wall)
	}
}

func TestWallClockTrips(t *testing.T) {
	c := NewChecker(context.Background(), Limits{Wall: time.Nanosecond})
	time.Sleep(time.Millisecond)
	c.SetStage("hot-loop")
	err := c.CheckNow()
	be, ok := AsError(err)
	if !ok {
		t.Fatalf("want *Error, got %v", err)
	}
	if be.Resource != ResourceWallClock || be.Stage != "hot-loop" {
		t.Fatalf("got %+v", be)
	}
	if be.Canceled() {
		t.Fatal("deadline expiry must not count as cancellation")
	}
}

func TestRateLimitedCheckEventuallyTrips(t *testing.T) {
	c := NewChecker(context.Background(), Limits{Wall: time.Nanosecond})
	time.Sleep(time.Millisecond)
	var err error
	for i := 0; i < 4*checkInterval && err == nil; i++ {
		err = c.Check()
	}
	if _, ok := AsError(err); !ok {
		t.Fatalf("rate-limited Check never tripped: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewChecker(ctx, Limits{})
	if c == nil {
		t.Fatal("cancelable context should yield an active checker")
	}
	if err := c.CheckNow(); err != nil {
		t.Fatal(err)
	}
	cancel()
	be, ok := AsError(c.CheckNow())
	if !ok || !be.Canceled() {
		t.Fatalf("want canceled budget error, got %+v ok=%v", be, ok)
	}
	if !errors.Is(be, context.Canceled) {
		t.Fatal("budget error should unwrap to context.Canceled")
	}
}

func TestContextDeadlineCountsAsWallClock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	c := NewChecker(ctx, Limits{})
	be, ok := AsError(c.CheckNow())
	if !ok || be.Resource != ResourceWallClock {
		t.Fatalf("want wall-clock budget error, got %+v ok=%v", be, ok)
	}
	if be.Canceled() {
		t.Fatal("deadline expiry must not count as cancellation")
	}
}

func TestCountableResources(t *testing.T) {
	c := NewChecker(context.Background(), Limits{MaxSequences: 3})
	c.SetStage("s")
	if err := c.Sequences(3); err != nil {
		t.Fatal(err)
	}
	be, _ := AsError(c.Sequences(4))
	if be == nil || be.Resource != ResourceSequences || be.Limit != 3 || be.Used != 4 {
		t.Fatalf("got %+v", be)
	}
}

func TestIsolateRecoversPanics(t *testing.T) {
	err := Isolate("unit", func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Stage != "unit" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("got %+v", pe)
	}
}

func TestIsolatePreservesErrorPanics(t *testing.T) {
	sentinel := errors.New("model invariant")
	err := Isolate("unit", func() error { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("error panic value should unwrap: %v", err)
	}
}

func TestIsolatePassesThroughErrors(t *testing.T) {
	sentinel := errors.New("plain")
	if err := Isolate("unit", func() error { return sentinel }); err != sentinel {
		t.Fatalf("got %v", err)
	}
	if err := Isolate("unit", func() error { return nil }); err != nil {
		t.Fatalf("got %v", err)
	}
}
