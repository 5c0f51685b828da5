package kernel

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1 * US, "1.000us"},
		{1500 * NS, "1.500us"},
		{25 * MS, "25.000ms"},
		{2*S + 250*MS, "2.250s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestCallbackOrdering(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // same time: FIFO by seq
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ran := false
	s.At(100, func() { ran = true })
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("work beyond the horizon must not run")
	}
	if s.Now() != 50 {
		t.Errorf("clock must idle forward to the horizon, Now() = %v", s.Now())
	}
	if !s.Pending() {
		t.Error("work must remain queued")
	}
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	if !ran || s.Now() != 200 {
		t.Errorf("second Run: ran=%v Now()=%v, want ran at 100 and clock idled to 200", ran, s.Now())
	}
}

// seq turns a straight-line body into a process: dispatch i runs step i,
// which re-arms the process for the next step or, by not re-arming, ends it.
func seq(steps ...func(p *Process)) func(p *Process) {
	i := 0
	return func(p *Process) {
		if i < len(steps) {
			i++
			steps[i-1](p)
		}
	}
}

// loop is the process form of a body that runs fn and then waits d, n times.
func loop(n int, d Time, fn func(p *Process)) func(p *Process) {
	i := 0
	return func(p *Process) {
		if i < n {
			i++
			fn(p)
			p.WakeAfter(d)
		}
	}
}

// periodic is the process form of `for { wait(d); fn() }`: the spawn-time
// dispatch only arms the first period.
func periodic(d Time, fn func(p *Process)) func(p *Process) {
	armed := false
	return func(p *Process) {
		if armed {
			fn(p)
		}
		armed = true
		p.WakeAfter(d)
	}
}

func TestThreadWait(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var stamps []Time
	s.Spawn("ticker", loop(3, 25*MS, func(p *Process) {
		stamps = append(stamps, p.Now())
	}))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 25 * MS, 50 * MS}
	for i, w := range want {
		if stamps[i] != w {
			t.Errorf("stamp %d = %v, want %v", i, stamps[i], w)
		}
	}
	if s.Now() != 75*MS {
		t.Errorf("final time = %v, want 75ms (last wait completes)", s.Now())
	}
}

func TestThreadsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		defer s.Shutdown()
		var log []string
		s.Spawn("a", loop(3, 10, func(*Process) { log = append(log, "a") }))
		s.Spawn("b", loop(3, 10, func(*Process) { log = append(log, "b") }))
		if err := s.Run(Forever); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d: nondeterministic interleaving %v vs %v", i, again, first)
			}
		}
	}
	// Spawn order breaks the tie at equal timestamps.
	if first[0] != "a" || first[1] != "b" {
		t.Errorf("interleaving = %v, want a before b at each step", first)
	}
}

func TestEventNotify(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ev := s.NewEvent("irq")
	if ev.Name() != "irq" {
		t.Errorf("Name() = %q", ev.Name())
	}
	var woke Time
	s.Spawn("waiter", seq(
		func(p *Process) { p.WakeOn(ev) },
		func(p *Process) { woke = p.Now() },
	))
	s.Spawn("notifier", seq(
		func(p *Process) { p.WakeAfter(40) },
		func(*Process) { ev.Notify(5) },
	))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if woke != 45 {
		t.Errorf("waiter woke at %v, want 45", woke)
	}
}

func TestEventNotifyWakesOnlyCurrentWaiters(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ev := s.NewEvent("e")
	count := 0
	s.Spawn("late", seq(
		func(p *Process) { p.WakeAfter(10) }, // starts waiting after the notify below has fired
		func(p *Process) { p.WakeOn(ev) },
		func(*Process) { count++ },
	))
	s.At(5, func() { ev.Notify(0) })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Error("a process that waits after Notify must not be woken by it")
	}
}

func TestEventNotifyMultipleWaiters(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ev := s.NewEvent("e")
	woke := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", seq(
			func(p *Process) { p.WakeOn(ev) },
			func(*Process) { woke++ },
		))
	}
	s.At(10, func() { ev.Notify(0) })
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if woke != 3 {
		t.Errorf("woke = %d, want 3", woke)
	}
}

// A yield is WakeAfter(0): the process runs again at the same timestamp,
// after the work already queued there.
func TestYield(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var log []string
	s.Spawn("a", seq(
		func(p *Process) {
			log = append(log, "a1")
			p.WakeAfter(0)
		},
		func(*Process) { log = append(log, "a2") },
	))
	s.Spawn("b", func(*Process) {
		log = append(log, "b1")
	})
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestStopFromThread(t *testing.T) {
	s := New()
	defer s.Shutdown()
	reached := false
	s.Spawn("stopper", seq(
		func(p *Process) { p.WakeAfter(10) },
		func(p *Process) {
			s.Stop()
			p.WakeAfter(0)
		},
		func(*Process) { reached = true }, // must never run
	))
	s.Spawn("other", periodic(1, func(*Process) {}))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Error("no process may be dispatched after Stop")
	}
	if !s.Stopped() || s.Now() != 10 {
		t.Errorf("Stopped=%v Now=%v", s.Stopped(), s.Now())
	}
}

func TestFatalFromThread(t *testing.T) {
	s := New()
	defer s.Shutdown()
	boom := errors.New("boom")
	s.Spawn("failer", seq(
		func(p *Process) { p.WakeAfter(3) },
		func(*Process) { s.Fatal(boom) },
	))
	err := s.Run(Forever)
	if !errors.Is(err, boom) {
		t.Errorf("Run error = %v, want boom", err)
	}
	if s.Err() != boom {
		t.Errorf("Err() = %v", s.Err())
	}
	// First fatal wins.
	s2 := New()
	defer s2.Shutdown()
	first, second := errors.New("first"), errors.New("second")
	s2.Fatal(first)
	s2.Fatal(second)
	if s2.Err() != first {
		t.Errorf("Err() = %v, want first", s2.Err())
	}
}

func TestShutdownBeforeFirstDispatch(t *testing.T) {
	s := New()
	s.Spawn("neverran", func(*Process) {
		t.Error("body must not run")
	})
	s.Shutdown() // drops the spawn-time dispatch
	if s.Pending() || !s.Stopped() {
		t.Errorf("after Shutdown: Pending=%v Stopped=%v", s.Pending(), s.Stopped())
	}
}

// A process that returns without re-arming is finished: nothing of it stays
// queued and it is never dispatched again.
func TestThreadDoneAndName(t *testing.T) {
	s := New()
	defer s.Shutdown()
	runs := 0
	pr := s.Spawn("worker", seq(
		func(p *Process) {
			runs++
			p.WakeAfter(5)
		},
		func(*Process) { runs++ },
	))
	if pr.Name() != "worker" {
		t.Errorf("Name() = %q", pr.Name())
	}
	if !s.Pending() {
		t.Error("the spawn-time dispatch must be queued before Run")
	}
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || s.Pending() || s.Now() != 5 {
		t.Errorf("runs=%d Pending=%v Now=%v, want 2 dispatches, nothing queued, clock at 5", runs, s.Pending(), s.Now())
	}
}

func TestAtClampsToPast(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var at Time = 999
	s.At(50, func() {
		s.At(10, func() { at = s.Now() }) // in the past: clamp to now
	})
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if at != 50 {
		t.Errorf("past-scheduled callback ran at %v, want 50", at)
	}
}

func TestNestedRunPanics(t *testing.T) {
	s := New()
	defer s.Shutdown()
	s.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Run must panic")
			}
		}()
		s.Run(Forever)
	})
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
}

func TestProcAccessors(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ran := false
	s.Spawn("x", func(p *Process) {
		ran = true
		if p.Name() != "x" {
			t.Errorf("Name() = %q", p.Name())
		}
		if p.Now() != 0 {
			t.Errorf("Now() = %v", p.Now())
		}
	})
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("the process never ran")
	}
}

// The scheduler runs every process on Run's own goroutine.
func TestRunStartsNoGoroutine(t *testing.T) {
	s := New()
	defer s.Shutdown()
	before := runtime.NumGoroutine()
	during := -1
	s.Spawn("x", seq(
		func(p *Process) { p.WakeAfter(1) },
		func(*Process) { during = runtime.NumGoroutine() },
	))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if during != before {
		t.Errorf("NumGoroutine() = %d inside a process, %d before Spawn", during, before)
	}
}

func panicInProcess(*Process) { panic("boom in process") }

func panicInCallback() { panic("boom in callback") }

func TestPanicInProcess(t *testing.T) {
	s := New()
	defer s.Shutdown()
	after := false
	s.Spawn("bad", seq(
		func(p *Process) { p.WakeAfter(7) },
		panicInProcess,
	))
	s.At(8, func() { after = true })
	pe := runPanics(t, s)
	if pe.Process != "bad" || pe.Value != "boom in process" {
		t.Errorf("PanicError = {Process: %q, Value: %v}, want bad / boom in process", pe.Process, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "kernel.panicInProcess") {
		t.Errorf("Stack lacks the panicking function:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "bad") || !strings.Contains(pe.Error(), "boom in process") {
		t.Errorf("Error() = %q", pe.Error())
	}
	if s.Now() != 7 || after {
		t.Errorf("Now=%v after=%v: the simulation must stop at the panic", s.Now(), after)
	}
}

func TestPanicInCallback(t *testing.T) {
	s := New()
	defer s.Shutdown()
	s.Spawn("ticker", periodic(2, func(*Process) {}))
	s.After(5, panicInCallback)
	pe := runPanics(t, s)
	if pe.Process != "" || pe.Value != "boom in callback" {
		t.Errorf("PanicError = {Process: %q, Value: %v}, want a plain callback's boom", pe.Process, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "kernel.panicInCallback") {
		t.Errorf("Stack lacks the panicking function:\n%s", pe.Stack)
	}
	if s.Now() != 5 {
		t.Errorf("Now = %v, want the panic's time 5", s.Now())
	}
}

// runPanics runs s to completion and requires it to stop on a *PanicError,
// stay stopped, and return the same error from a second Run.
func runPanics(t *testing.T, s *Simulator) *PanicError {
	t.Helper()
	err := s.Run(Forever)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want a *PanicError", err)
	}
	if !s.Stopped() || s.Err() != err {
		t.Errorf("Stopped=%v Err=%v: a panic must stop the simulation", s.Stopped(), s.Err())
	}
	now := s.Now()
	if again := s.Run(Forever); again != err || s.Now() != now {
		t.Errorf("second Run = %v at %v, want the same error at %v", again, s.Now(), now)
	}
	return pe
}
