package soc_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
)

// oracleIters is the loop count of oracleSrc.
const oracleIters = 7

// oracleSrc is a guest whose clearance checks can be counted from its
// source. Every instruction runs, each fetched once. Each of the
// oracleIters iterations makes two loads (a HI secret word, and one byte
// popped from the UART's RX FIFO), three stores (the secret into the
// guarded region, the UART byte outside every rule, and the UART byte out
// through uart0.tx) and one conditional branch. After the loop a LI word
// stored into the guarded region raises the store-clearance violation that
// stops the run.
var oracleSrc = fmt.Sprintf(`
	.equ UART_BASE, 0x10000000
	.text
_start:
	la s0, secret
	la s1, guard
	la s2, unguarded
	li s3, UART_BASE
	li s4, %d
loop:
	lw t0, 0(s0)
	lw t1, 4(s3)
	sw t0, 0(s1)
	sw t1, 0(s2)
	sb t1, 0(s3)
	addi s4, s4, -1
	bnez s4, loop
	sw s4, 4(s1)
text_end:
	.data
secret:
	.word 0x5ec7e7
guard:
	.space 8
unguarded:
	.space 8
`, oracleIters)

// TestEnforcementCountsOracle holds the enforcement counter set to counts
// derived from oracleSrc's source, not from any counter: every checks.*,
// violations.* and io.* metric, and every policy-audit point, with an
// observer only, the audit only, and both attached; with neither, the
// platform installs no counter set and reports none of those keys.
func TestEnforcementCountsOracle(t *testing.T) {
	img := asm.MustAssemble(oracleSrc, asm.Options{Base: soc.RAMBase})
	sym := img.MustSymbol
	const n = oracleIters
	insns := uint64(sym("text_end")-sym("_start")) / 4
	wantMetrics := map[string]uint64{
		"checks.fetch":               insns, // each instruction word fetched once
		"checks.branch":              n,     // bnez
		"checks.mem_addr":            5*n + 1,
		"checks.store":               n + 1, // guard stores, the violating one included
		"checks.output":              n,     // UART bytes out
		"checks.input":               n,     // UART bytes in
		"io.uart0.tx.bytes":          n,
		"violations.store-clearance": 1,
	}
	wantPoints := map[string]cover.PointStat{
		"exec:fetch":      {Checks: insns},
		"exec:branch":     {Checks: n},
		"exec:mem-addr":   {Checks: 5*n + 1},
		"region:guard":    {Checks: n + 1, Violations: 1},
		"output:uart0.tx": {Checks: n},
	}
	// The audit's points are the metric keys under other names.
	for point, key := range map[string]string{
		"exec:fetch": "checks.fetch", "exec:branch": "checks.branch",
		"exec:mem-addr": "checks.mem_addr", "region:guard": "checks.store",
		"output:uart0.tx": "checks.output",
	} {
		if wantPoints[point].Checks != wantMetrics[key] {
			t.Fatalf("oracle: %s checks %d, %s %d", point, wantPoints[point].Checks, key, wantMetrics[key])
		}
	}

	for _, tc := range []struct {
		name          string
		observe, cov  bool
		installsCount bool
	}{
		{"observer", true, false, true},
		{"audit", false, true, true},
		{"both", true, true, true},
		{"neither", false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := core.IFP2()
			hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
			pol := core.NewPolicy(l, li).
				WithFetchClearance(hi).
				WithBranchClearance(li).
				WithMemAddrClearance(li).
				WithOutput("uart0.tx", li).
				WithRegion(core.RegionRule{Name: "text", Start: sym("_start"), End: sym("text_end"), Classify: true, Class: hi}).
				WithRegion(core.RegionRule{Name: "secret", Start: sym("secret"), End: sym("secret") + 4, Classify: true, Class: hi}).
				WithRegion(core.RegionRule{Name: "guard", Start: sym("guard"), End: sym("guard") + 8, CheckStore: true, Clearance: hi})
			cfg := soc.Config{Policy: pol}
			if tc.observe {
				cfg.Obs = obs.New()
			}
			var cv *cover.Cover
			if tc.cov {
				cv = &cover.Cover{Audit: cover.NewAudit()}
				cfg.Cover = cv
			}
			pl := soc.MustNew(cfg)
			defer pl.Shutdown()
			if err := pl.Load(img); err != nil {
				t.Fatal(err)
			}
			pl.UART.Inject([]byte("oracle!")[:n])
			err := pl.Run(kernel.S)
			var v *core.Violation
			if !errors.As(err, &v) || v.Kind != core.KindStoreClearance || v.Addr != sym("guard")+4 {
				t.Fatalf("run stopped with %v, want the store-clearance violation at guard+4", err)
			}

			got := map[string]uint64{}
			for k, c := range pl.MetricsSnapshot() {
				if strings.HasPrefix(k, "checks.") || strings.HasPrefix(k, "violations.") || strings.HasPrefix(k, "io.") {
					got[k] = c
				}
			}
			want := map[string]uint64{}
			if tc.installsCount {
				want = wantMetrics
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("metrics\n got %v\nwant %v", got, want)
			}
			if cv != nil {
				if points := cv.Audit.Points(); !reflect.DeepEqual(points, wantPoints) {
					t.Errorf("audit points\n got %v\nwant %v", points, wantPoints)
				}
			}
		})
	}
}

// TestTrapVectorViolationNamesTrappingInsn holds the trap-vector branch
// check to the same observer event as every other failed check: the PC
// and the word of the instruction that trapped (the ecall), the trap
// vector as its value, and one count each in checks.branch and
// violations.branch-clearance.
func TestTrapVectorViolationNamesTrappingInsn(t *testing.T) {
	img := asm.MustAssemble(`
	.text
_start:
	la t1, vec
	lw t0, 0(t1)
	csrw mtvec, t0
	nop
trap_at:
	ecall
handler:
	j handler
	.data
vec:
	.word handler
`, asm.Options{Base: soc.RAMBase})
	sym := img.MustSymbol
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, hi).
		WithBranchClearance(hi).
		WithRegion(core.RegionRule{Name: "vec", Start: sym("vec"), End: sym("vec") + 4, Classify: true, Class: li})
	o := obs.New()
	pl := soc.MustNew(soc.Config{Policy: pol, Obs: o})
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	err := pl.Run(kernel.S)
	var v *core.Violation
	if !errors.As(err, &v) || v.Kind != core.KindBranchClearance || v.PC != sym("trap_at") || v.Value != sym("handler") {
		t.Fatalf("run stopped with %v, want the branch-clearance violation on the trap vector 0x%x at 0x%x",
			err, sym("handler"), sym("trap_at"))
	}
	var checks []core.TaintEvent
	for _, ev := range o.Events() {
		if ev.Kind == core.EvCheck {
			checks = append(checks, ev)
		}
	}
	if len(checks) != 1 {
		t.Fatalf("observer recorded %d check events, want 1: %+v", len(checks), checks)
	}
	if ev := checks[0]; ev.PC != sym("trap_at") || ev.Insn != 0x00000073 || ev.Value != sym("handler") {
		t.Errorf("check event pc=0x%x insn=0x%08x value=0x%x, want pc=0x%x insn=0x00000073 (ecall) value=0x%x",
			ev.PC, ev.Insn, ev.Value, sym("trap_at"), sym("handler"))
	}
	m := pl.MetricsSnapshot()
	if m["checks.branch"] != 1 || m["violations.branch-clearance"] != 1 {
		t.Errorf("checks.branch %d, violations.branch-clearance %d, want 1 and 1",
			m["checks.branch"], m["violations.branch-clearance"])
	}
}
