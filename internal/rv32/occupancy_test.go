package rv32

import (
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/kernel"
)

// TestRegOccupancyMatchesFullScan holds the taint view's register
// occupancy, updated from each retire's rd and resynced at every Run,
// against a scan of the whole register file after every retire. The guest
// taints, clears and retaints registers across Run boundaries, and the
// test pokes registers between Run calls.
func TestRegOccupancyMatchesFullScan(t *testing.T) {
	src := `
_start:
	la s0, secret
	li s2, 40
loop:
	lw t0, 0(s0)         # t0 tainted
	add t1, t0, x0       # t1 tainted
	andi t2, s2, 3
	beqz t2, 1f
	li t1, 0             # cleared on three iterations of four
1:
	mv t3, t1
	li t0, 0
	addi s2, s2, -1
	bnez s2, loop
	lw a1, 0(s0)         # tainted until the end
	call halt

	.data
	.align 2
secret:
	.word 0x1234
`
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	secret := img.MustSymbol("secret")
	pol := core.NewPolicy(l, lc).WithRegion(core.RegionRule{
		Name: "secret", Start: secret, End: secret + 4, Classify: true, Class: hc,
	})
	// Pokes land between Run calls of the chunked run (multiples of 5).
	pokes := map[uint64]func(c *TaintCore){
		20: func(c *TaintCore) { c.Regs[20] = core.W(9, hc) },
		45: func(c *TaintCore) { c.Regs[20] = core.W(0, lc) },
		60: func(c *TaintCore) { c.Regs[21] = core.W(3, hc); c.Regs[6] = core.W(0, lc) },
	}

	// Reference: one instruction per Run, the whole file scanned after
	// every retire.
	ref := buildTaint(t, src, pol)
	var want [32]uint64
	var retires uint64
	var delay kernel.Time
	for {
		n, st, err := ref.c.Run(1, &delay)
		if err != nil {
			t.Fatal(err)
		}
		if st == RunHalt {
			break
		}
		if n != 1 {
			t.Fatalf("Run(1) retired %d", n)
		}
		retires++
		for r := 1; r < 32; r++ {
			if ref.c.Regs[r].T != lc {
				want[r]++
			}
		}
		if p := pokes[retires]; p != nil {
			p(ref.c)
		}
	}

	r := buildTaint(t, src, pol)
	tc := cover.NewTaint()
	tc.Configure(testRAMBase, testRAMSize, l, lc)
	cv := &cover.Cover{Taint: tc}
	r.c.Cov = tc
	for {
		_, st, err := r.c.Run(5, &delay)
		if err != nil {
			t.Fatal(err)
		}
		if st == RunHalt {
			break
		}
		if p := pokes[r.c.Instret]; p != nil {
			p(r.c)
		}
	}
	got := cover.Capture(cv, cover.RunID{}, nil).Taint
	if got.Retires != retires {
		t.Errorf("retires %d, reference %d", got.Retires, retires)
	}
	partial := false
	for i := range want {
		if got.RegOcc[i] != want[i] {
			t.Errorf("x%d occupancy %d, reference %d", i, got.RegOcc[i], want[i])
		}
		partial = partial || (want[i] > 0 && want[i] < retires)
	}
	if !partial || want[20] == 0 || want[21] == 0 {
		t.Errorf("guest did not exercise partial and poked occupancy: %v", want)
	}
}
