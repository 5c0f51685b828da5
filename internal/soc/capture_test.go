package soc

import (
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/rv32"
)

// runCounter counts the Run calls the platform makes on its core.
type runCounter struct {
	cpu
	calls uint64
}

func (r *runCounter) Run(max uint64, delay *kernel.Time) (uint64, rv32.RunStatus, error) {
	r.calls++
	return r.cpu.Run(max, delay)
}

// TestFlightCapturesPerBlock holds the recorder to one entry per basic
// block on two Table II rows at small scale, qsort and freertos-tasks (its
// timer interrupts add traps and IRQ marks): every block record ends at a
// control-transfer retire, a trap, a mark or the end of a Run call, so on
// each core there are no more of them than those added up, while every
// retire (an instruction that did not trap) is still in the stream.
func TestFlightCapturesPerBlock(t *testing.T) {
	for _, row := range []struct {
		name string
		img  *asm.Image
	}{
		{"qsort", guest.QSort(20000).Image},
		{"freertos-tasks", guest.RTOSTasks(400).Image},
	} {
		l := core.IFP2()
		hi := l.MustTag(core.ClassHI)
		pol := core.NewPolicy(l, l.MustTag(core.ClassLI)).
			WithFetchClearance(hi).
			WithRegion(core.RegionRule{Name: "image", Start: row.img.Base, End: row.img.End(), Classify: true, Class: hi})
		for _, p := range []*core.Policy{nil, pol} {
			fr := flight.New(0)
			var blocks, retires, transfers, traps, marks uint64
			fr.SubscribeBlocks(func(b []flight.Rec) {
				for i := range b {
					if b[i].Kind == flight.KindBlock {
						blocks++
					}
				}
			})
			fr.Subscribe(func(b []flight.Rec) {
				for i := range b {
					switch r := &b[i]; {
					case r.Kind == flight.KindRetire:
						retires++
						if r.Flags&flight.FlagBranch != 0 {
							transfers++
						}
					case r.Kind == flight.KindTrap:
						traps++
					default:
						marks++
					}
				}
			})
			pl := MustNew(Config{Policy: p, Flight: fr})
			runs := &runCounter{cpu: pl.cpu}
			pl.cpu = runs
			if err := pl.Load(row.img); err != nil {
				t.Fatal(err)
			}
			if err := pl.Run(kernel.Forever); err != nil {
				t.Fatal(err)
			}
			pl.Shutdown()
			name := row.name + map[bool]string{false: " VP", true: " VP+"}[p != nil]
			if exited, code := pl.Exited(); !exited || code != 0 {
				t.Fatalf("%s: exited=%v code=%d", name, exited, code)
			}
			if retires+traps != pl.Instret() {
				t.Errorf("%s: %d retires and %d traps in the stream, instret %d", name, retires, traps, pl.Instret())
			}
			if bound := transfers + traps + marks + runs.calls; blocks > bound {
				t.Errorf("%s: %d block records, more than %d control transfers + %d traps + %d marks + %d Run calls",
					name, blocks, transfers, traps, marks, runs.calls)
			}
			if blocks*3 > retires {
				t.Errorf("%s: %d block records for %d retires", name, blocks, retires)
			}
			t.Logf("%s: %d retires in %d block records (%d control transfers, %d traps, %d marks, %d Run calls)",
				name, retires, blocks, transfers, traps, marks, runs.calls)
		}
	}
}
