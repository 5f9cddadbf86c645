// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-style processes.
//
// All database operators, calibration drivers, and storage devices in this
// repository run in virtual time on top of this kernel: the clock jumps from
// event to event, exactly one process executes at a time, and reruns with the
// same seed are bit-identical. This is what lets a parameter sweep that
// models minutes of device time finish in milliseconds of host time.
//
// The programming model mirrors classic process-oriented simulators
// (SimPy, CSIM): a process is an ordinary function running on its own
// goroutine that blocks in virtual time via Proc.Sleep, Proc.Wait, or
// Proc.Acquire. Control passes between goroutines as a baton (see Env), so
// exactly one of them touches simulation state at a time and that state
// needs no locking.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros reports d as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis reports d as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// Sub reports the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add reports the time t + d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is one scheduled occurrence. Events with equal times fire in the
// order they were scheduled (seq breaks ties), which keeps the simulation
// deterministic. An event either resumes a parked process (proc != nil) —
// the common Sleep/Wait/grant case, which carries the process in the event
// itself and allocates nothing — or runs a callback (fn != nil).
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// eventQueue is a value-typed binary min-heap ordered by (at, seq). Keeping
// events by value in one slice avoids the per-event heap allocation and the
// interface{} boxing of container/heap, and the slice's storage is reused
// across Schedule calls as the queue grows and drains. Because (at, seq) is
// a total order (seq is unique), any correct heap pops events in exactly the
// same sequence, so swapping the implementation preserves bit-identical
// simulations.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the callback for GC before shrinking
	h = h[:n]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of live processes. An Env is not safe for concurrent use from host
// goroutines; all interaction happens from process context or between calls
// to Run.
//
// Control moves by baton passing. Exactly one goroutine holds the baton:
// Run's caller, or the process currently executing. A process that parks or
// exits keeps the baton and dispatches events itself — callbacks run inline
// on its goroutine — until it reaches the next process wakeup, then hands
// the baton straight to that process. When the wakeup is its own, it simply
// returns. The baton goes back to Run's caller only when the queue drains,
// the RunUntil deadline is reached, or a panic must be re-raised there.
type Env struct {
	now    Time
	events eventQueue
	seq    uint64
	rng    *rand.Rand

	live    map[*Proc]struct{}
	nParked int // live processes currently parked, for deadlock detection

	// deadline bounds the current Run/RunUntil: events after it stay
	// queued. ret hands the baton back to Run's caller.
	deadline Time
	ret      chan struct{}

	// spawned is the process a Go start event just launched; dispatch
	// hands it the baton right after that event, as if it were a wakeup.
	spawned *Proc

	// panicked carries a panic raised on a process goroutine — by the
	// process itself or by a callback it dispatched — back to Run's
	// caller, where it is re-raised so callers of Run can recover it.
	panicked interface{}
}

// NewEnv returns an environment whose clock reads zero and whose random
// source is seeded with seed. Two environments built with the same seed and
// driven by the same process logic produce identical event sequences.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:  rand.New(rand.NewSource(seed)),
		ret:  make(chan struct{}),
		live: make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// LiveProcs reports how many spawned processes have not yet exited —
// running, parked, or scheduled to start. After a clean Run it is zero;
// test harnesses assert that to catch leaked simulation processes, the way
// goleak catches leaked goroutines.
func (e *Env) LiveProcs() int { return len(e.live) }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Schedule registers fn to run at time e.Now()+d. It may be called from
// process context or from another event callback. Scheduling into the past
// panics: it would make the clock non-monotonic.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling %v into the past", d))
	}
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, fn: fn})
}

// wake schedules p to be handed control at e.Now()+d. This is the kernel's
// internal fast path: the process rides in the event itself, so the common
// sleep/completion/grant wakeups allocate no closure.
func (e *Env) wake(p *Proc, d Duration) {
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, proc: p})
}

// parkKind says why a process is parked. The human-readable reason is only
// materialised (parkReason) when a deadlock report is actually built, so
// parking costs no allocation on the happy path.
type parkKind uint8

const (
	parkNone parkKind = iota
	parkSleep
	parkCompletion
	parkWaitGroup
	parkResource
)

// Proc is a simulation process: a goroutine that runs while it holds the
// baton and blocks in virtual time. Methods on Proc must only be called
// from the process's own goroutine.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}

	parked    bool
	parkKind  parkKind
	parkDur   Duration // parkSleep: the sleep length
	parkExtra string   // parkResource: the resource name
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// parkReason renders why the process is parked, for deadlock reports.
func (p *Proc) parkReason() string {
	switch p.parkKind {
	case parkSleep:
		return fmt.Sprintf("sleeping %v", p.parkDur)
	case parkCompletion:
		return "completion"
	case parkWaitGroup:
		return "waitgroup"
	case parkResource:
		return "resource " + p.parkExtra
	default:
		return "unknown"
	}
}

// Go spawns fn as a new process named name. The process starts at the
// current virtual time, after the caller yields. Go may be called before Run
// or from any process or event context.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.live[p] = struct{}{}
	e.Schedule(0, func() {
		go p.run(fn)
		e.spawned = p
	})
	return p
}

// run is a process goroutine's body: wait for the baton, run fn, and pass
// the baton on when fn returns.
func (p *Proc) run(fn func(p *Proc)) {
	e := p.env
	<-p.resume
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
		}
		delete(e.live, p)
		if e.panicked != nil {
			e.ret <- struct{}{}
			return
		}
		e.pass(nil)
	}()
	fn(p)
}

// park suspends the calling process, recording a typed wait reason for
// deadlock reports, and dispatches events on its goroutine until the
// process is resumed.
func (p *Proc) park(kind parkKind, d Duration, extra string) {
	p.parked = true
	p.parkKind = kind
	p.parkDur = d
	p.parkExtra = extra
	p.env.nParked++
	if p.env.pass(p) {
		return
	}
	<-p.resume
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping %v", p.name, d))
	}
	p.env.wake(p, d)
	p.park(parkSleep, d, "")
}

// dispatch fires events in (at, seq) order until it reaches a process
// wakeup or a started process, which it returns with the process marked
// runnable. Callbacks run inline on the calling goroutine. It returns nil
// when the queue is empty or the next event lies past the deadline.
func (e *Env) dispatch() *Proc {
	for len(e.events) > 0 && e.events[0].at <= e.deadline {
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = ev.at
		p := ev.proc
		if p == nil {
			ev.fn()
			if p = e.spawned; p == nil {
				continue
			}
			e.spawned = nil
		}
		if p.parked {
			p.parked = false
			p.parkKind = parkNone
			e.nParked--
		}
		return p
	}
	return nil
}

// pass hands the baton on from a process goroutine: self is the process
// parking there (nil when it is exiting). It reports true when the next
// runnable process is self, which then continues without any channel
// operation. Otherwise the baton goes to the next process, or back to
// Run's caller when dispatch stops or a callback panics.
func (e *Env) pass(self *Proc) (resumeSelf bool) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			e.ret <- struct{}{}
		}
	}()
	switch next := e.dispatch(); {
	case next == nil:
		e.ret <- struct{}{}
	case next == self:
		return true
	default:
		next.resume <- struct{}{}
	}
	return false
}

// run drives the simulation up to deadline from Run's caller: it
// dispatches until the first process wakeup, hands that process the baton
// and waits for the baton to come back.
func (e *Env) run(deadline Time) {
	e.deadline = deadline
	next := e.dispatch()
	if next == nil {
		return
	}
	next.resume <- struct{}{}
	<-e.ret
	if r := e.panicked; r != nil {
		e.panicked = nil
		panic(r)
	}
}

// checkDeadlock panics with the parked processes' names and wait reasons if
// any process is still parked once the event queue has drained.
func (e *Env) checkDeadlock() {
	if e.nParked == 0 {
		return
	}
	var stuck []string
	for p := range e.live {
		if p.parked {
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.parkReason()))
		}
	}
	sort.Strings(stuck)
	panic(fmt.Sprintf("sim: deadlock at t=%v: %d process(es) still waiting: %v",
		Duration(e.now), len(stuck), stuck))
}

// Run drives the simulation until the event queue is empty. It returns the
// final virtual time. If processes are still parked when the queue drains,
// the simulation has deadlocked and Run panics with the parked processes'
// names and wait reasons.
func (e *Env) Run() Time {
	e.run(math.MaxInt64)
	e.checkDeadlock()
	return e.now
}

// RunUntil drives the simulation until the event queue is empty or the clock
// would pass deadline. Events at exactly deadline still fire. It reports
// whether the queue drained (true) or the deadline cut the run short (false).
// Like Run, it enforces clock monotonicity and panics with a deadlock report
// if the queue drains while processes are still parked.
func (e *Env) RunUntil(deadline Time) bool {
	e.run(deadline)
	if len(e.events) > 0 {
		return false
	}
	e.checkDeadlock()
	return true
}
