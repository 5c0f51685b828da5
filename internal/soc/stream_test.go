package soc_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

// streamSrc runs five rounds of: call a worker (nested calls, a loop,
// stores), arm the CLINT timer, sleep in wfi until the tick. The tick
// handler calls a helper too. Calls, returns, branches, stores, IRQ entries
// and sleeping wfis all reach the retire stream.
const streamSrc = `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	la t0, trap_handler
	csrw mtvec, t0
	li t1, 0x80           # MTIE
	csrw mie, t1
	csrsi mstatus, 8
	li s0, 0
1:	mv a0, s0
	call work
	call arm_timer
sleep:
	wfi
	addi s0, s0, 1
	li t0, 5
	blt s0, t0, 1b
	la t0, ticks
	lw a0, 0(t0)
	addi a0, a0, -5       # exit 0 when every tick arrived
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

arm_timer:
	li t0, CLINT_BASE + CLINT_MTIME
	lw t1, 0(t0)
	addi t1, t1, 200      # 200 us ahead
	li t0, CLINT_BASE + CLINT_MTIMECMP
	li t2, -1
	sw t2, 0(t0)
	sw zero, 4(t0)
	sw t1, 0(t0)
	ret

work:
	addi sp, sp, -16
	sw ra, 12(sp)
	sw s1, 8(sp)
	sw s2, 4(sp)
	addi s1, a0, 8
	li s2, 0
2:	mv a0, s1
	call square
	add s2, s2, a0
	addi s1, s1, -1
	bnez s1, 2b
	la t0, results
	sw s2, 0(t0)
	lw s2, 4(sp)
	lw s1, 8(sp)
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

square:
	mul a0, a0, a0
	ret

trap_handler:
	addi sp, sp, -16
	sw ra, 12(sp)
	sw t0, 8(sp)
	sw t1, 4(sp)
	call tick
	li t0, CLINT_BASE + CLINT_MTIMECMP
	li t1, -1
	sw t1, 4(t0)
	sw t1, 0(t0)
	lw t1, 4(sp)
	lw t0, 8(sp)
	lw ra, 12(sp)
	addi sp, sp, 16
	mret

tick:
	la t0, ticks
	lw t1, 0(t0)
	addi t1, t1, 1
	sw t1, 0(t0)
	ret

	.data
	.align 2
ticks:	.word 0
results:
	.word 0
`

// streamPolicy builds a fresh VP+ policy per run (the audit installs its
// counters on the lattice) that exercises every audited clearance point.
func streamPolicy(img *asm.Image) *core.Policy {
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	return core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithBranchClearance(li).
		WithMemAddrClearance(li).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
}

// streamRun is what the stream's consumers hold after one run.
type streamRun struct {
	stats   []trace.FuncStat
	folded  string
	snap    []byte
	samples []map[string]uint64
	total   uint64 // profiler Total
	retires uint64 // retire records a counting subscriber saw
	sleeps  uint64 // guest coverage count of the wfi
	dropped uint64 // records the ring overwrote
}

// runStream runs streamSrc on a platform whose flight ring has the given
// size, with the profiler, all cover views, a telemetry sampler and a
// counting subscriber attached.
func runStream(t *testing.T, dift bool, ring int) streamRun {
	t.Helper()
	img := guest.MustProgram(streamSrc)
	var pol *core.Policy
	if dift {
		pol = streamPolicy(img)
	}
	var out streamRun
	fr := flight.New(ring)
	fr.Subscribe(func(recs []flight.Rec) {
		for i := range recs {
			if recs[i].Kind == flight.KindRetire {
				out.retires++
			}
		}
	})
	prof := trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize)
	cv := cover.New()
	smp := telemetry.NewSampler(telemetry.Options{Every: 100 * kernel.US})
	pl, err := soc.New(soc.Config{
		Policy: pol, Trace: &trace.Trace{Prof: prof}, Cover: cv,
		Telemetry: smp, Flight: fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	if exited, code := pl.Exited(); !exited || code != 0 {
		t.Fatalf("guest exited=%v code=%d", exited, code)
	}
	out.stats = prof.Stats()
	var folded strings.Builder
	if err := prof.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	out.folded = folded.String()
	out.snap = pl.CoverSnapshot("stream", "p").JSON()
	for _, s := range smp.Samples() {
		m := map[string]uint64{"t_ns": uint64(s.Time)}
		for k, v := range s.Metrics {
			if strings.HasPrefix(k, "trace.") || strings.HasPrefix(k, "cover.") || k == "sim.instret" {
				m[k] = v
			}
		}
		out.samples = append(out.samples, m)
	}
	out.total = prof.Total()
	out.sleeps = cv.Guest.Count(img.MustSymbol("sleep"))
	out.dropped = fr.Dropped()
	return out
}

// TestStreamRingSizeParity forces flushes mid-quantum with a 16-entry ring
// and holds every consumer against the default ring: profiler tables and
// folded stacks, guest coverage, taint view and audit counters, and what
// the telemetry sampler read between quanta.
func TestStreamRingSizeParity(t *testing.T) {
	for _, dift := range []bool{false, true} {
		small, def := runStream(t, dift, 16), runStream(t, dift, 0)
		name := map[bool]string{false: "VP", true: "VP+"}[dift]
		if small.dropped == 0 {
			t.Fatalf("%s: the 16-entry ring never wrapped", name)
		}
		for _, r := range []streamRun{small, def} {
			if r.total != r.retires {
				t.Errorf("%s: profiler total %d, subscriber saw %d retire records", name, r.total, r.retires)
			}
			if r.sleeps != 5 {
				t.Errorf("%s: sleeping wfi covered %d times, want 5", name, r.sleeps)
			}
		}
		if !reflect.DeepEqual(small.stats, def.stats) {
			t.Errorf("%s: profiler stats differ:\n%v\n%v", name, small.stats, def.stats)
		}
		if small.folded != def.folded || def.folded == "" {
			t.Errorf("%s: folded stacks differ:\n%s\n%s", name, small.folded, def.folded)
		}
		if !bytes.Equal(small.snap, def.snap) {
			t.Errorf("%s: cover snapshots differ:\n%s\n%s", name, small.snap, def.snap)
		}
		if len(def.samples) < 5 || !reflect.DeepEqual(small.samples, def.samples) {
			t.Errorf("%s: sampled consumer state differs (%d vs %d samples)", name, len(small.samples), len(def.samples))
		}
		if dift && !bytes.Contains(def.snap, []byte(`"exec:branch"`)) {
			t.Errorf("%s: audit snapshot lacks the branch clearance point:\n%s", name, def.snap)
		}
	}
}

// TestFlightOffStream pins the two FlightOff flavours: with no subscriber
// the core captures nothing; with one, the stream runs — the terminal
// fault record included — but no bundle is frozen and no flight gauges are
// published.
func TestFlightOffStream(t *testing.T) {
	img := guest.MustProgram(`
main:
	call helper
	li t0, 0x30000000
	lw t1, 0(t0)          # unmapped: bus error
	li a0, 0
	ret
helper:
	ret
`)
	pl := soc.MustNew(soc.Config{FlightOff: true})
	if pl.Core.FR != nil || pl.FlightRecorder() != nil {
		t.Fatal("FlightOff without a subscriber must not capture")
	}
	pl.Shutdown()

	prof := trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize)
	var retires uint64
	var last flight.Rec
	fr := flight.New(0)
	fr.Subscribe(func(recs []flight.Rec) {
		for _, r := range recs {
			if r.Kind == flight.KindRetire {
				retires++
			}
		}
		last = recs[len(recs)-1]
	})
	pl = soc.MustNew(soc.Config{FlightOff: true, Flight: fr, Trace: &trace.Trace{Prof: prof}})
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	err := pl.Run(kernel.Forever)
	var be *rv32.BusError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a bus error", err)
	}
	if pl.Core.FR != fr || prof.Total() == 0 || prof.Total() != retires {
		t.Fatalf("stream not captured: profiler %d, subscriber %d retire records", prof.Total(), retires)
	}
	if last.Kind != flight.KindFault || last.PC != be.PC || last.Insn == 0 {
		t.Errorf("last streamed record = %+v, want the fault at 0x%08x", last, be.PC)
	}
	if pl.FlightRecorder() != nil || pl.LastForensics() != nil || pl.Snapshot("x") != nil {
		t.Error("FlightOff must freeze no bundle")
	}
	if _, ok := pl.MetricsSnapshot()["flight.captured_total"]; ok {
		t.Error("FlightOff must publish no flight gauges")
	}
}
