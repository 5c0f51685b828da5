// Package stress implements the paper's future-work direction ("automatic
// test-case generation methods ... tailored for stress-testing security
// policies"): it generates random embedded programs whose data flows are
// known by construction and checks the DIFT engine against them.
//
// Each generated program runs two interleaved data-flow chains — one rooted
// at a classified secret, one rooted at public data — through a random mix
// of register moves, arithmetic, memory round trips at word/half/byte
// granularity, CSR round trips, MMIO round trips through the sensor frame,
// and DMA copies. One of the two chains is finally emitted on the UART:
//
//   - emitting the secret-rooted chain must ALWAYS raise an
//     output-clearance violation (a miss is under-tainting: a real leak the
//     engine would not catch);
//   - emitting the public chain must NEVER raise one (a false alarm is
//     over-tainting: the engine would reject correct firmware).
package stress

import (
	"errors"
	"fmt"
	"strings"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
)

// Config parameterizes a stress run.
type Config struct {
	// Seeds is the number of generated programs per direction (each seed
	// is run twice: once emitting the secret chain, once the public one).
	Seeds int
	// Steps is the number of transformation steps per chain.
	Steps int
	// UseDMA includes DMA-copy hops in the step mix.
	UseDMA bool
	// UseMMIO includes sensor-frame round trips in the step mix.
	UseMMIO bool
	// UseCSR includes mscratch round trips in the step mix.
	UseCSR bool
}

// Failure records one engine bug found by the stress run.
type Failure struct {
	Seed       uint32
	EmitSecret bool
	Problem    string // "under-tainting" or "over-tainting"
	Detail     string
	Source     string
}

// Outcome summarizes a stress run.
type Outcome struct {
	Programs int
	Failures []Failure
}

// OK reports whether the engine survived the run.
func (o Outcome) OK() bool { return len(o.Failures) == 0 }

// gen builds one random program.
type gen struct {
	seed uint32
	cfg  Config
	b    strings.Builder
	slot int
}

func (g *gen) rnd() uint32 {
	g.seed = g.seed*1664525 + 1013904223
	return g.seed
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
}

func (g *gen) newSlot() string {
	g.slot++
	return fmt.Sprintf("st_slot%d", g.slot)
}

// step emits one taint-preserving transformation of the live value in reg.
func (g *gen) step(reg, helper string) {
	choices := 8
	if g.cfg.UseDMA {
		choices++
	}
	if g.cfg.UseMMIO {
		choices++
	}
	if g.cfg.UseCSR {
		choices++
	}
	switch c := g.rnd() % uint32(choices); {
	case c == 0:
		g.line("mv t0, %s", reg)
		g.line("mv %s, t0", reg)
	case c == 1:
		g.line("li %s, %d", helper, g.rnd()%4096)
		g.line("add %s, %s, %s", reg, reg, helper)
	case c == 2:
		g.line("xori %s, %s, %d", reg, reg, g.rnd()%2048)
	case c == 3:
		g.line("slli %s, %s, 2", reg, reg)
		g.line("srli %s, %s, 2", reg, reg)
	case c == 4:
		s := g.newSlot()
		g.line("la t1, %s", s)
		g.line("sw %s, 0(t1)", reg)
		g.line("lw %s, 0(t1)", reg)
	case c == 5:
		s := g.newSlot()
		g.line("la t1, %s", s)
		g.line("sb %s, 0(t1)", reg)
		g.line("lbu %s, 0(t1)", reg)
	case c == 6:
		s := g.newSlot()
		g.line("la t1, %s", s)
		g.line("sh %s, 0(t1)", reg)
		g.line("lhu %s, 0(t1)", reg)
	case c == 7:
		g.line("li %s, 3", helper)
		g.line("mul %s, %s, %s", reg, reg, helper)
	case c == 8 && g.cfg.UseDMA:
		// DMA hop: value travels through the copy engine. The engine
		// ignores a start while busy, so poll first like real firmware
		// (the stress harness caught exactly this when the poll was
		// missing — see stress_test.go).
		src, dst := g.newSlot(), g.newSlot()
		wait := fmt.Sprintf("st_dmawait%d", g.slot)
		g.line("la t1, %s", src)
		g.line("sw %s, 0(t1)", reg)
		g.line("li t0, DMA_BASE")
		fmt.Fprintf(&g.b, "%s:\n", wait)
		g.line("lw t3, DMA_CTRL(t0)")
		g.line("andi t3, t3, 1")
		g.line("bnez t3, %s", wait)
		g.line("sw t1, DMA_SRC(t0)")
		g.line("la t1, %s", dst)
		g.line("sw t1, DMA_DST(t0)")
		g.line("li t3, 4")
		g.line("sw t3, DMA_LEN(t0)")
		g.line("li t3, 1")
		g.line("sw t3, DMA_CTRL(t0)")
		g.line("la t1, %s", dst)
		g.line("lw %s, 0(t1)", reg)
	case g.cfg.UseMMIO && (c == 8 && !g.cfg.UseDMA || c == 9 && g.cfg.UseDMA):
		// MMIO hop: park the byte in the sensor's writable frame.
		off := g.rnd() % 60
		g.line("li t1, SENSOR_BASE + %d", off)
		g.line("sb %s, 0(t1)", reg)
		g.line("lbu %s, 0(t1)", reg)
	default:
		// CSR hop.
		g.line("csrw mscratch, %s", reg)
		g.line("csrr %s, mscratch", reg)
	}
}

// program builds the guest source; emitSecret picks which chain reaches the
// console.
func (g *gen) program(emitSecret bool) string {
	g.b.Reset()
	g.slot = 0
	g.b.WriteString("main:\n")
	g.line("la t0, st_secret")
	g.line("lw s2, 0(t0)")
	g.line("li s3, 0x777")
	for i := 0; i < g.cfg.Steps; i++ {
		g.step("s2", "s4")
		g.step("s3", "s5")
	}
	out := "s3"
	if emitSecret {
		out = "s2"
	}
	g.line("li t0, UART_BASE")
	g.line("sw %s, UART_TX(t0)", out)
	g.line("li a0, 0")
	g.line("j exit")
	fmt.Fprintf(&g.b, "\t.data\n\t.align 2\nst_secret:\n\t.word 0x%08x\n", 0x5EC0_0000|g.rnd()&0xFFFF)
	for i := 1; i <= g.slot; i++ {
		fmt.Fprintf(&g.b, "\t.align 2\nst_slot%d:\n\t.word 0\n", i)
	}
	return g.b.String()
}

// Program returns the guest source of the program generated from seed;
// emitSecret picks which chain reaches the console.
func Program(seed uint32, cfg Config, emitSecret bool) string {
	g := &gen{seed: seed, cfg: cfg}
	return g.program(emitSecret)
}

// LeakPolicy is the IFP-1 policy a generated program runs under: its secret
// word is HC and the UART transmitter requires LC.
func LeakPolicy(img *asm.Image) *core.Policy {
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	secret := img.MustSymbol("st_secret")
	return core.NewPolicy(l, lc).
		WithOutput("uart0.tx", lc).
		WithRegion(core.RegionRule{
			Name: "secret", Start: secret, End: secret + 4,
			Classify: true, Class: hc,
		})
}

// runOne executes one generated program under the leak policy and
// classifies the outcome.
func runOne(seed uint32, cfg Config, emitSecret bool) *Failure {
	src := Program(seed, cfg, emitSecret)
	img, err := guest.Program(src)
	if err != nil {
		return &Failure{Seed: seed, EmitSecret: emitSecret, Problem: "generator", Detail: err.Error(), Source: src}
	}
	pl, err := soc.New(soc.Config{Policy: LeakPolicy(img)})
	if err != nil {
		return &Failure{Seed: seed, EmitSecret: emitSecret, Problem: "platform", Detail: err.Error(), Source: src}
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		return &Failure{Seed: seed, EmitSecret: emitSecret, Problem: "load", Detail: err.Error(), Source: src}
	}
	runErr := pl.Run(10 * kernel.S)

	var v *core.Violation
	isViolation := errors.As(runErr, &v)
	switch {
	case emitSecret && !isViolation:
		return &Failure{
			Seed: seed, EmitSecret: true, Problem: "under-tainting",
			Detail: fmt.Sprintf("secret-derived console output not detected (err=%v)", runErr),
			Source: src,
		}
	case !emitSecret && isViolation:
		return &Failure{
			Seed: seed, EmitSecret: false, Problem: "over-tainting",
			Detail: v.Error(), Source: src,
		}
	case !emitSecret && runErr != nil:
		return &Failure{Seed: seed, EmitSecret: false, Problem: "runtime", Detail: runErr.Error(), Source: src}
	}
	return nil
}

// Run executes the stress campaign.
func Run(cfg Config) Outcome {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 50
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	var out Outcome
	for s := 1; s <= cfg.Seeds; s++ {
		seed := uint32(s) * 2654435761
		for _, emitSecret := range []bool{true, false} {
			out.Programs++
			if f := runOne(seed, cfg, emitSecret); f != nil {
				out.Failures = append(out.Failures, *f)
			}
		}
	}
	return out
}
