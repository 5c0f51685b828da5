// Package kernel provides a deterministic discrete-event simulation kernel,
// the Go substitute for the SystemC simulation kernel used by the paper's
// virtual prototype.
//
// The execution model mirrors SystemC's SC_METHOD processes: a process is a
// named callback that runs to completion each time the scheduler dispatches
// it and re-arms itself with WakeAfter (next_trigger(d)) or WakeOn
// (next_trigger(event)). A process that returns without re-arming is
// finished. Timed plain callbacks can be scheduled with After/At. Events
// support delayed notification like sc_event::notify(delay).
//
// Determinism: all runnable work is ordered by (timestamp, schedule sequence
// number), so repeated simulations of the same model produce identical
// traces. Everything runs on the goroutine that calls Run, which is also
// where a panic in any process or callback ends up: Run recovers it and
// stops the simulation with a *PanicError.
package kernel

import (
	"container/heap"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Time is simulated time in nanoseconds.
type Time uint64

// Convenience units for simulated durations.
const (
	NS Time = 1
	US Time = 1000 * NS
	MS Time = 1000 * US
	S  Time = 1000 * MS
)

// Forever is a run horizon that is never reached in practice.
const Forever Time = 1<<64 - 1

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= S:
		return fmt.Sprintf("%d.%03ds", t/S, (t%S)/MS)
	case t >= MS:
		return fmt.Sprintf("%d.%03dms", t/MS, (t%MS)/US)
	case t >= US:
		return fmt.Sprintf("%d.%03dus", t/US, (t%US)/NS)
	default:
		return fmt.Sprintf("%dns", t)
	}
}

// workItem is a scheduled unit of execution: either a process wake-up or a
// plain callback. Daemon items (wake-ups of daemon processes) never keep the
// simulation alive on their own — see Run.
type workItem struct {
	at     Time
	seq    uint64
	proc   *Process
	fn     func()
	daemon bool
}

type workQueue []*workItem

func (q workQueue) Len() int { return len(q) }
func (q workQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q workQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *workQueue) Push(x any)   { *q = append(*q, x.(*workItem)) }
func (q *workQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Tracer observes kernel scheduling: process lifecycle, event
// notifications, and simulated-clock advances. All callbacks run
// synchronously inside the scheduler, so implementations must not call back
// into the simulator. A nil tracer costs one predictable branch per hook
// site, the same discipline as the cores' Tracer/Obs hooks.
type Tracer interface {
	// ThreadSpawn: a process was created (its first run is scheduled at `at`).
	ThreadSpawn(name string, at Time)
	// ThreadRun: the scheduler dispatched the process at the current time.
	ThreadRun(name string, at Time)
	// ThreadPause: the process's callback returned to the scheduler.
	ThreadPause(name string, at Time)
	// ThreadWake: the process was scheduled to run again at wakeAt.
	ThreadWake(name string, at, wakeAt Time)
	// EventNotify: an event fired at `at`, waking `waiters` processes at
	// deliverAt.
	EventNotify(event string, at, deliverAt Time, waiters int)
	// TimeAdvance: the simulated clock moved from `from` to `to`. Work items
	// executing between two advances at the same timestamp are delta cycles.
	TimeAdvance(from, to Time)
}

// Simulator owns the simulated clock and the work queue.
type Simulator struct {
	now     Time
	seq     uint64
	queue   workQueue
	live    int      // queued non-daemon work items
	current *Process // the process being dispatched, nil between dispatches
	stopped bool
	err     error
	running bool
	trace   Tracer
}

// SetTracer attaches a scheduling tracer (nil detaches). Zero cost when nil.
func (s *Simulator) SetTracer(t Tracer) { s.trace = t }

// New creates an empty simulator at time 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Err returns the fatal error that stopped the simulation, if any.
func (s *Simulator) Err() error { return s.err }

// Stopped reports whether Stop or Fatal has been called.
func (s *Simulator) Stopped() bool { return s.stopped }

// Stop ends the simulation gracefully: Run returns once the currently
// executing process or callback returns.
func (s *Simulator) Stop() { s.stopped = true }

// Fatal stops the simulation with an error; Run returns it. The first fatal
// error wins.
func (s *Simulator) Fatal(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
}

func (s *Simulator) push(it *workItem) {
	it.seq = s.seq
	s.seq++
	if !it.daemon {
		s.live++
	}
	heap.Push(&s.queue, it)
}

// At schedules fn to run at absolute simulated time t (not before the current
// time).
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.push(&workItem{at: t, fn: fn})
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// PanicError is the error Run returns when a process or callback panicked.
// The simulation is stopped where the panic left it; its state stays
// readable (a platform freezes its forensic bundle from it).
type PanicError struct {
	// Process names the panicking process, "" for a plain callback, or
	// the work a Contain caller named.
	Process string
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine's stack at the panic, panicking frames
	// included.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Process == "" {
		return fmt.Sprintf("kernel: callback panicked: %v", e.Value)
	}
	return fmt.Sprintf("kernel: process %s panicked: %v", e.Process, e.Value)
}

// Contain runs fn and returns the panic it raised as a *PanicError naming
// proc, with the stack at the panic; nil if fn returned. Run contains the
// simulation with it; a caller doing work outside Run names that work.
func Contain(proc string, fn func()) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Process: proc, Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Run executes scheduled work until the horizon is passed, the queue drains,
// or the simulation is stopped. It returns the fatal error, if any. The clock
// never advances past `until`; work scheduled later stays queued for a
// subsequent Run call.
//
// Daemon processes (SpawnDaemon) never keep the simulation alive: once only
// daemon wake-ups remain queued, an unbounded Run returns exactly as if the
// queue had drained. Under a finite horizon the remaining daemon items still
// execute up to the horizon — a periodic sampler keeps ticking through idle
// stretches the caller explicitly asked to simulate.
//
// A panic in a process or callback does not escape: Run stops the
// simulation and returns a *PanicError.
func (s *Simulator) Run(until Time) error {
	if s.running {
		panic("kernel: Run called from inside a process")
	}
	s.running = true
	pe := Contain("", func() { s.run(until) })
	s.running = false
	if pe != nil {
		if s.current != nil {
			pe.Process = s.current.name
			s.current = nil
		}
		s.Fatal(pe)
	}
	return s.err
}

// run is Run's scheduling loop.
func (s *Simulator) run(until Time) {
	for !s.stopped && len(s.queue) > 0 {
		if s.live == 0 && until == Forever {
			break // only daemon work left; an unbounded run would never end
		}
		next := s.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.queue)
		if !next.daemon {
			s.live--
		}
		// Daemon-only stretches can leave the clock already advanced past a
		// queued item's schedule time; the clock must never move backwards.
		if next.at > s.now {
			if s.trace != nil {
				s.trace.TimeAdvance(s.now, next.at)
			}
			s.now = next.at
		}
		if next.proc != nil {
			s.dispatch(next.proc)
		} else {
			next.fn()
		}
	}
	if !s.stopped && s.now < until && until != Forever {
		// Idle until the horizon, like sc_start with no pending activity.
		if s.trace != nil && until != s.now {
			s.trace.TimeAdvance(s.now, until)
		}
		s.now = until
	}
}

// dispatch runs one process callback, then yields to the Go scheduler. At
// GOMAXPROCS=1 the garbage collector's background mark worker runs only when
// the simulating goroutine yields; without a yield per dispatch, a long run
// keeps allocating through a stretched mark phase and overshoots its heap
// goal.
func (s *Simulator) dispatch(p *Process) {
	p.queued = false
	if s.trace != nil {
		s.trace.ThreadRun(p.name, s.now)
	}
	s.current = p
	p.fn(p)
	s.current = nil
	if s.trace != nil {
		s.trace.ThreadPause(p.name, s.now)
	}
	runtime.Gosched()
}

// Pending reports whether any work is queued.
func (s *Simulator) Pending() bool { return len(s.queue) > 0 }

// Shutdown stops the simulator and drops its queued work; afterwards the
// simulator must not be used. Processes hold no resources outside the
// queue, so an abandoned simulator that skips Shutdown leaks nothing.
func (s *Simulator) Shutdown() {
	s.stopped = true
	s.queue = nil
	s.live = 0
}

// Event is the analog of sc_event: processes wait on it with
// Process.WakeOn, and it is fired with Notify.
type Event struct {
	s       *Simulator
	name    string
	waiters []*Process
}

// NewEvent creates a named event.
func (s *Simulator) NewEvent(name string) *Event { return &Event{s: s, name: name} }

// Name returns the event's name.
func (e *Event) Name() string { return e.name }

// Notify wakes all processes currently waiting on the event after the given
// delay. Like sc_event::notify, processes that start waiting after the call
// are not woken by it. Notify(0) wakes waiters at the current timestamp,
// after the currently running process returns.
func (e *Event) Notify(delay Time) {
	waiters := e.waiters
	e.waiters = nil
	if e.s.trace != nil {
		e.s.trace.EventNotify(e.name, e.s.now, e.s.now+delay, len(waiters))
	}
	for _, p := range waiters {
		p.wake(e.s.now + delay)
	}
}

// Process is a named callback the scheduler dispatches, the analog of an
// SC_METHOD. Each dispatch runs the callback to completion; the callback
// re-arms the process with one call to WakeAfter or WakeOn, or returns
// without one to finish it. A process that needs state across dispatches
// keeps it in its closure.
type Process struct {
	s      *Simulator
	name   string
	fn     func(p *Process)
	daemon bool
	queued bool
}

// Spawn creates a process and schedules its first dispatch at the current
// time.
func (s *Simulator) Spawn(name string, fn func(p *Process)) *Process {
	return s.spawn(name, fn, false)
}

// SpawnDaemon creates a daemon process: it participates in simulated time
// like any other process, but its pending wake-ups never keep the
// simulation alive — Run(Forever) returns when only daemon work remains,
// exactly as if the queue had drained. This is the contract a periodic
// telemetry sampler needs: it observes the platform at a fixed simulated
// cadence without turning a finished (or deadlocked) simulation into an
// infinite loop.
func (s *Simulator) SpawnDaemon(name string, fn func(p *Process)) *Process {
	return s.spawn(name, fn, true)
}

func (s *Simulator) spawn(name string, fn func(p *Process), daemon bool) *Process {
	p := &Process{s: s, name: name, fn: fn, daemon: daemon}
	if s.trace != nil {
		s.trace.ThreadSpawn(name, s.now)
	}
	p.wake(s.now)
	return p
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.s.now }

// WakeAfter re-arms the process to run again d after the current time —
// next_trigger(d). WakeAfter(0) runs it again at the current timestamp,
// after the work already queued there.
func (p *Process) WakeAfter(d Time) { p.wake(p.s.now + d) }

// WakeOn re-arms the process to run when e is next notified —
// next_trigger(e).
func (p *Process) WakeOn(e *Event) { e.waiters = append(e.waiters, p) }

func (p *Process) wake(at Time) {
	if p.queued {
		return
	}
	p.queued = true
	if p.s.trace != nil {
		p.s.trace.ThreadWake(p.name, p.s.now, at)
	}
	p.s.push(&workItem{at: at, proc: p, daemon: p.daemon})
}
