package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// A parking process dispatches events itself and resumes without a channel
// operation when the next wakeup is its own. That shortcut must not let it
// jump ahead of events that tie with its wakeup in time but were scheduled
// earlier.
func TestSelfWakeupYieldsToEarlierSeqTies(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Go("b", func(p *Proc) {
		p.Sleep(Millisecond)
		order = append(order, "b")
	})
	e.Go("a", func(p *Proc) {
		e.Schedule(Millisecond, func() { order = append(order, "cb") })
		p.Sleep(Millisecond)
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "cb0") })
		p.Sleep(0)
		order = append(order, "a0")
	})
	e.Run()
	want := "[b cb a cb0 a0]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// panicsWith runs f and returns the value it panicked with (nil if none).
func panicsWith(f func()) (r interface{}) {
	defer func() { r = recover() }()
	f()
	return nil
}

// A callback dispatched on a process goroutine (the process parked and
// holds the baton) panics: the panic must surface from Run and RunUntil on
// the caller's goroutine, where it can be recovered.
func TestCallbackPanicOnProcessGoroutineReRaised(t *testing.T) {
	for _, until := range []bool{false, true} {
		e := NewEnv(1)
		e.Go("holder", func(p *Proc) {
			e.Schedule(Millisecond, func() { panic("boom") })
			p.Sleep(2 * Millisecond)
		})
		r := panicsWith(func() {
			if until {
				e.RunUntil(Time(5 * Millisecond))
			} else {
				e.Run()
			}
		})
		if r != "boom" {
			t.Fatalf("until=%v: recovered %v, want boom", until, r)
		}
		if e.Now() != Time(Millisecond) {
			t.Fatalf("until=%v: clock %v at panic, want 1ms", until, Duration(e.Now()))
		}
	}
}

// RunUntil stops while a process holds the baton (the deadline is seen by
// the parking process's own dispatch), and a later Run resumes from there.
func TestRunUntilDeadlineWhileProcessHoldsBaton(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(Millisecond)
			ticks++
		}
	})
	if e.RunUntil(Time(5*Millisecond + 1)) {
		t.Fatal("RunUntil reported drained, want deadline cut-off")
	}
	if ticks != 5 || e.Now() != Time(5*Millisecond) {
		t.Fatalf("after RunUntil: ticks=%d now=%v, want 5 at 5ms", ticks, Duration(e.Now()))
	}
	if !e.RunUntil(Time(Second)) {
		t.Fatal("second RunUntil did not drain")
	}
	if ticks != 20 || e.LiveProcs() != 0 {
		t.Fatalf("after drain: ticks=%d live=%d, want 20 and 0", ticks, e.LiveProcs())
	}
}

// Every process goroutine exits with its process: after a clean Run the
// goroutine count returns to what it was before.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	r := NewResource(e, "cpu", 2)
	c := NewCompletion(e)
	for i := 0; i < 32; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Use(r, Duration(i+1)*Microsecond)
			p.Wait(c)
			e.Go("child", func(p *Proc) { p.Sleep(Microsecond) })
		})
	}
	e.Schedule(Millisecond, c.Fire)
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Run", e.LiveProcs())
	}
	// The last process goroutine hands the baton back just before it
	// returns; give it a moment to finish exiting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// The deadlock report names every parked process with its wait reason,
// sorted by name, whichever goroutine held the baton when the queue drained.
func TestDeadlockReportFormat(t *testing.T) {
	for _, until := range []bool{false, true} {
		e := NewEnv(1)
		r := NewResource(e, "cpu", 1)
		wg := NewWaitGroup(e)
		wg.Add(1)
		e.Go("holder", func(p *Proc) {
			p.Acquire(r)
			p.WaitFor(wg)
		})
		e.Go("waiter", func(p *Proc) {
			p.Sleep(Millisecond)
			p.Acquire(r)
		})
		e.Go("stuck", func(p *Proc) { p.Wait(NewCompletion(e)) })
		got := panicsWith(func() {
			if until {
				e.RunUntil(Time(Second))
			} else {
				e.Run()
			}
		})
		want := "sim: deadlock at t=1.000ms: 3 process(es) still waiting: " +
			"[holder (waitgroup) stuck (completion) waiter (resource cpu)]"
		if got != want {
			t.Fatalf("until=%v: report %q, want %q", until, got, want)
		}
	}
}
