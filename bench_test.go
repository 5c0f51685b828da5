// Benchmarks regenerating the paper's evaluation:
//
//   - BenchmarkTable2VP / BenchmarkTable2VPPlus: one sub-benchmark per
//     Table II row, measuring guest MIPS on the baseline VP and the DIFT
//     VP+ platform. The per-row VP+/VP time ratio is the paper's overhead
//     column (cmd/perf prints the assembled table).
//   - BenchmarkTable1WKSuite: the full Wilander–Kamkar detection run behind
//     Table I.
//   - BenchmarkAblation*: design-choice ablations from DESIGN.md §5 —
//     tag propagation without any clearance checks (isolating pure taint
//     cost), the DMI-style direct memory path versus plain bus access, and
//     the predecoded-instruction cache on versus off.
//   - BenchmarkLattice*: the O(1) LUB/AllowedFlow operations underlying
//     Fig. 1 (they execute several times per simulated instruction).
package vpdift_test

import (
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/perf"
	"vpdift/internal/soc"
	"vpdift/internal/wk"
)

// benchWorkloadOpts runs one Table II workload repeatedly on the platform
// the options select, reporting simulated MIPS.
func benchWorkloadOpts(b *testing.B, w perf.Workload, o perf.Options) {
	b.Helper()
	var instr uint64
	var wall float64
	for i := 0; i < b.N; i++ {
		m, err := perf.RunOnceOpts(w, o)
		if err != nil {
			b.Fatal(err)
		}
		instr += m.Instr
		wall += m.Wall.Seconds()
	}
	if wall > 0 {
		b.ReportMetric(float64(instr)/1e6/wall, "MIPS")
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instructions/op")
}

func BenchmarkTable2VP(b *testing.B) {
	for _, w := range perf.Workloads(perf.ScaleSmall) {
		b.Run(w.Name, func(b *testing.B) { benchWorkloadOpts(b, w, perf.Options{}) })
	}
}

func BenchmarkTable2VPPlus(b *testing.B) {
	for _, w := range perf.Workloads(perf.ScaleSmall) {
		b.Run(w.Name, func(b *testing.B) { benchWorkloadOpts(b, w, perf.Options{DIFT: true}) })
	}
}

func BenchmarkTable1WKSuite(b *testing.B) {
	suite := wk.Suite()
	for i := 0; i < b.N; i++ {
		for j := range suite {
			a := &suite[j]
			if !a.Applicable() {
				continue
			}
			res, err := wk.Run(a, true)
			if err != nil {
				b.Fatal(err)
			}
			if res != wk.Detected {
				b.Fatalf("attack %d: %v", a.Num, res)
			}
		}
	}
}

// BenchmarkAblationTagPropagationOnly runs the qsort workload on a
// TaintCore whose policy enables no checks at all: the cost difference to
// BenchmarkTable2VP/qsort is pure tag storage+propagation, and the
// difference to BenchmarkTable2VPPlus/qsort is the price of the clearance
// checks.
func BenchmarkAblationTagPropagationOnly(b *testing.B) {
	w := perf.Workloads(perf.ScaleSmall)[0]
	w.Policy = func(img *asm.Image) *core.Policy {
		l := core.IFP2()
		return core.NewPolicy(l, l.MustTag(core.ClassLI))
	}
	benchWorkloadOpts(b, w, perf.Options{DIFT: true})
}

// memBench builds a load/store-heavy guest touching either RAM (DMI-style
// direct path) or the sensor frame (TLM transaction path).
func memBench(b *testing.B, base string) {
	b.Helper()
	img := guest.MustProgram(`
main:
	li s0, ` + base + `
	li s1, 200000
1:	lw t0, 0(s0)
	lw t1, 4(s0)
	add t0, t0, t1
	sw t0, 8(s0)
	addi s1, s1, -1
	bnez s1, 1b
	li a0, 0
	ret
`)
	for i := 0; i < b.N; i++ {
		pl := soc.MustNew(soc.Config{})
		if err := pl.Load(img); err != nil {
			b.Fatal(err)
		}
		if err := pl.Run(kernel.Forever); err != nil {
			b.Fatal(err)
		}
		if exited, code := pl.Exited(); !exited || code != 0 {
			b.Fatalf("exited=%v code=%d", exited, code)
		}
		pl.Shutdown()
	}
}

// BenchmarkAblationMemoryDMIPath exercises the direct RAM fast path.
func BenchmarkAblationMemoryDMIPath(b *testing.B) {
	memBench(b, "RAM_BASE + 0x100000")
}

// BenchmarkAblationMemoryBusPath exercises the same access pattern through
// full TLM transactions (sensor frame registers).
func BenchmarkAblationMemoryBusPath(b *testing.B) {
	memBench(b, "SENSOR_BASE")
}

func BenchmarkLatticeLUB(b *testing.B) {
	l := core.IFP3()
	// The accumulator feeds back unmasked (LUB only returns valid tags), so
	// the loop body is a pure LUB chain.
	var t core.Tag
	for i := 0; i < b.N; i++ {
		t = l.LUB(core.Tag(i&3), t)
	}
	_ = t
}

func BenchmarkLatticeAllowedFlow(b *testing.B) {
	l := core.IFP3()
	var ok bool
	for i := 0; i < b.N; i++ {
		ok = l.AllowedFlow(core.Tag(i&3), core.Tag((i>>2)&3))
	}
	_ = ok
}

// BenchmarkAssembler measures in-process toolchain speed on the largest
// guest (the generated SHA-512).
func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		img := guest.SHA512(1024).Image
		if img.TextWords() == 0 {
			b.Fatal("empty image")
		}
	}
}

// BenchmarkAblationDecodeCacheOffVP runs the qsort workload on the baseline
// VP with the predecoded-instruction cache disabled: the gap to
// BenchmarkTable2VP/qsort is the cache's contribution to interpreter speed.
func BenchmarkAblationDecodeCacheOffVP(b *testing.B) {
	w := perf.Workloads(perf.ScaleSmall)[0]
	benchWorkloadOpts(b, w, perf.Options{NoDecodeCache: true})
}

// BenchmarkAblationDecodeCacheOffVPPlus is the VP+ counterpart; the gap to
// BenchmarkTable2VPPlus/qsort additionally includes the cached fetch-tag
// summary (on a hit, the per-fetch 3×LUB + AllowedFlow of the code-injection
// policy collapses to one comparison).
func BenchmarkAblationDecodeCacheOffVPPlus(b *testing.B) {
	w := perf.Workloads(perf.ScaleSmall)[0]
	benchWorkloadOpts(b, w, perf.Options{DIFT: true, NoDecodeCache: true})
}

// BenchmarkAblationTaintMemViaTLM runs the qsort workload on a VP+ whose
// data accesses all go through TLM transactions (the paper's VP+ memory
// interface) — compare with BenchmarkTable2VPPlus/qsort (direct path) and
// BenchmarkTable2VP/qsort (baseline).
func BenchmarkAblationTaintMemViaTLM(b *testing.B) {
	w := perf.Workloads(perf.ScaleSmall)[0]
	var instr uint64
	var wall float64
	for i := 0; i < b.N; i++ {
		m, err := perf.RunOnceOpts(w, perf.Options{DIFT: true, TLMMem: true})
		if err != nil {
			b.Fatal(err)
		}
		instr += m.Instr
		wall += m.Wall.Seconds()
	}
	if wall > 0 {
		b.ReportMetric(float64(instr)/1e6/wall, "MIPS")
	}
}
