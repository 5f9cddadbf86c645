package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// plain events the kernel fires per second of host time.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEnv(1)
	var tick func()
	fired := 0
	tick = func() {
		fired++
		if fired < b.N {
			e.Schedule(Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(Microsecond, tick)
	e.Run()
}

// BenchmarkProcessContextSwitch measures the self-resume path: one process
// sleeping in a loop is always the next event, so its own dispatch hands the
// baton straight back to it with no channel operation.
func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEnv(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkPingPong measures the non-self switch: two processes sleeping in
// lockstep wake alternately, so every event hands the baton to the other
// goroutine (one channel send and one receive).
func BenchmarkPingPong(b *testing.B) {
	e := NewEnv(1)
	for _, name := range []string{"ping", "pong"} {
		e.Go(name, func(p *Proc) {
			for i := 0; i < b.N/2+1; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkManyProcesses interleaves 64 sleeping processes.
func BenchmarkManyProcesses(b *testing.B) {
	e := NewEnv(1)
	const procs = 64
	each := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("p%d", w), func(p *Proc) {
			for i := 0; i < each; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkTypedEvents isolates the two event representations so a
// regression in either stays visible: wakeup events carry the process in the
// event itself (the Sleep/Wait/grant path, zero allocations), callback
// events carry a func() (the Schedule path).
func BenchmarkTypedEvents(b *testing.B) {
	b.Run("wakeup-only", func(b *testing.B) {
		// One process sleeping in a tight loop: every event is a proc wakeup.
		e := NewEnv(1)
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	b.Run("callback-heavy", func(b *testing.B) {
		// A self-rescheduling callback chain: every event runs a func().
		e := NewEnv(1)
		var tick func()
		fired := 0
		tick = func() {
			fired++
			if fired < b.N {
				e.Schedule(Microsecond, tick)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Schedule(Microsecond, tick)
		e.Run()
	})
	b.Run("mixed", func(b *testing.B) {
		// Completions fired from callbacks waking a waiting process: each
		// iteration exercises one callback event and one wakeup event.
		e := NewEnv(1)
		next := NewCompletion(e)
		e.Go("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				c := next
				p.Wait(c)
				next = NewCompletion(e)
			}
		})
		var arm func()
		fired := 0
		arm = func() {
			fired++
			next.Fire()
			if fired < b.N {
				e.Schedule(Microsecond, arm)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Schedule(Microsecond, arm)
		e.Run()
	})
}

// BenchmarkResourceContention measures acquire/release under queueing.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEnv(1)
	r := NewResource(e, "core", 4)
	const procs = 16
	each := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < each; i++ {
				p.Use(r, Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}
