package kernel

import "testing"

// A daemon process alone must not keep an unbounded Run alive: once the
// regular work drains, Run(Forever) returns exactly as if the queue were
// empty, with the daemon's next wake-up still queued.
func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ticks := 0
	s.SpawnDaemon("sampler", periodic(10, func(*Process) { ticks++ }))
	s.Spawn("worker", seq(func(p *Process) { p.WakeAfter(35) }))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3 (at 10, 20, 30 while the worker lives)", ticks)
	}
	if s.Now() != 35 {
		t.Errorf("Now() = %v, want 35 (the last live work item)", s.Now())
	}
	if !s.Pending() {
		t.Error("the daemon's next wake-up must stay queued")
	}
}

// Under a finite horizon the daemon keeps ticking through idle simulated
// time: the caller explicitly asked for that span to be simulated, so the
// periodic observation continues even with no live work queued.
func TestDaemonTicksThroughIdleHorizon(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var stamps []Time
	s.SpawnDaemon("sampler", periodic(10, func(p *Process) {
		stamps = append(stamps, p.Now())
	}))
	if err := s.Run(45); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40}
	if len(stamps) != len(want) {
		t.Fatalf("stamps = %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
	if s.Now() != 45 {
		t.Errorf("Now() = %v, want the horizon 45", s.Now())
	}
}

// An unbounded Run that returns on daemon-only work must leave the clock
// and the queued daemon wake-up consistent: a later finite Run picks the
// daemon back up without the clock ever moving backwards.
func TestDaemonResumesAfterUnboundedRun(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var stamps []Time
	s.SpawnDaemon("sampler", periodic(10, func(p *Process) {
		stamps = append(stamps, p.Now())
	}))
	s.Spawn("worker", seq(func(p *Process) { p.WakeAfter(5) }))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", s.Now())
	}
	if err := s.Run(25); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20}
	if len(stamps) != len(want) || stamps[0] != want[0] || stamps[1] != want[1] {
		t.Errorf("stamps = %v, want %v", stamps, want)
	}
	prev := Time(0)
	for _, st := range stamps {
		if st < prev {
			t.Fatalf("clock moved backwards: %v after %v", st, prev)
		}
		prev = st
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v, want the horizon 25", s.Now())
	}
}

// Stop ends daemon activity like everything else.
func TestDaemonStopsWithSimulation(t *testing.T) {
	s := New()
	defer s.Shutdown()
	ticks := 0
	s.SpawnDaemon("sampler", periodic(10, func(*Process) { ticks++ }))
	s.Spawn("stopper", seq(
		func(p *Process) { p.WakeAfter(25) },
		func(*Process) { s.Stop() },
	))
	if err := s.Run(Forever); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Errorf("ticks = %d, want 2 before the stop at 25", ticks)
	}
}
