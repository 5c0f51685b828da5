package rv32_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/perf"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
	"vpdift/internal/stress"
	"vpdift/internal/tlm"
)

// outcome is the architectural and tag state a run ends in.
type outcome struct {
	err     error
	exited  bool
	code    uint32
	pc      uint32
	instret uint64
	regs    [32]core.Word
	ram     []core.TByte
	cached  int
}

// runFlavour runs img on a fresh VP+ built from cfg, with the flag caches on
// or pinned off. between, when non-nil, runs after a first millisecond of
// simulated time and before the run continues to the horizon.
func runFlavour(t *testing.T, img *asm.Image, cfg soc.Config, horizon kernel.Time,
	pinned bool, between func(*soc.Platform)) outcome {
	t.Helper()
	pl := soc.MustNew(cfg)
	t.Cleanup(pl.Shutdown)
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if pinned {
		rv32.PinFlagCaches(pl.TaintCore)
	}
	var err error
	if between != nil {
		if err = pl.Run(pl.Now() + kernel.MS); err == nil {
			if exited, _ := pl.Exited(); exited {
				t.Fatal("guest exited before the between-run write")
			}
			between(pl)
		}
	}
	if err == nil {
		err = pl.Run(horizon)
	}
	c := pl.TaintCore
	o := outcome{err: err, pc: c.PC, instret: c.Instret, regs: c.Regs,
		ram: rv32.TaintRAM(c), cached: rv32.CachedBlocks(c)}
	o.exited, o.code = pl.Exited()
	return o
}

// checkParity runs img with the caches on and pinned off and requires
// identical outcomes: errors and violations, exit status, PC, instret,
// register values and tags, and every RAM byte.
func checkParity(t *testing.T, img *asm.Image, cfg soc.Config, horizon kernel.Time,
	between func(*soc.Platform)) outcome {
	t.Helper()
	on := runFlavour(t, img, cfg, horizon, false, between)
	off := runFlavour(t, img, cfg, horizon, true, between)

	if fmt.Sprint(on.err) != fmt.Sprint(off.err) {
		t.Fatalf("errors diverge:\ncache on:  %v\ncache off: %v", on.err, off.err)
	}
	var von, voff *core.Violation
	if errors.As(on.err, &von) != errors.As(off.err, &voff) ||
		(von != nil && !reflect.DeepEqual(von, voff)) {
		t.Fatalf("violations diverge:\ncache on:  %+v\ncache off: %+v", von, voff)
	}
	if on.exited != off.exited || on.code != off.code {
		t.Errorf("exit diverges: cache on (%v, %d), cache off (%v, %d)", on.exited, on.code, off.exited, off.code)
	}
	if on.pc != off.pc || on.instret != off.instret {
		t.Errorf("pc/instret diverge: cache on %#x/%d, cache off %#x/%d", on.pc, on.instret, off.pc, off.instret)
	}
	for r := range on.regs {
		if on.regs[r] != off.regs[r] {
			t.Errorf("x%d diverges: cache on %+v, cache off %+v", r, on.regs[r], off.regs[r])
		}
	}
	for i := range on.ram {
		if on.ram[i] != off.ram[i] {
			t.Fatalf("RAM[%#x] diverges: cache on %+v, cache off %+v", soc.RAMBase+uint32(i), on.ram[i], off.ram[i])
		}
	}
	if off.cached != 0 {
		t.Errorf("pinned run has %d cached blocks, want 0", off.cached)
	}
	return on
}

// flowPolicy classifies secret's first word HC under IFP-1.
func flowPolicy(img *asm.Image) *core.Policy {
	l := core.IFP1()
	secret := img.MustSymbol("secret")
	return core.NewPolicy(l, l.MustTag(core.ClassLC)).WithRegion(core.RegionRule{
		Name: "secret", Start: secret, End: secret + 4,
		Classify: true, Class: l.MustTag(core.ClassHC),
	})
}

// flowSrc exercises every cache path: tainted loads and stores of all
// widths, ALU joins, taint death by overwrite, branches, and clean loops.
const flowSrc = `
main:
	la t0, secret
	lw a0, 0(t0)        # taint enters a register
	li a1, 5
	add a2, a0, a1      # join: tainted
	la t1, buf
	sw a2, 0(t1)        # tainted store, word
	lb a3, 1(t1)        # tainted load, signed byte
	sh a0, 4(t1)        # tainted store, half
	lhu a4, 4(t1)       # tainted load, unsigned half
	xor a5, a4, a3      # tainted join
	slli a6, a5, 2
	srai a7, a5, 1
	mul s0, a5, a1
	divu s1, a5, a1
	li a2, 0            # register taint death (tainted rd, clear source)
	mv a5, zero
	mv a6, zero
	mv a7, zero
	mv s0, zero
	mv s1, zero
	sw x0, 0(t1)        # memory taint death by overwrite
	sw x0, 4(t1)
	sw x0, 0(t0)
	mv a0, zero
	mv a3, zero
	mv a4, zero
	li t2, 50           # clean loop: runs entirely on the fast paths
1:	lw a1, 0(t1)
	addi a1, a1, 1
	sw a1, 0(t1)
	addi t2, t2, -1
	bnez t2, 1b
	li a0, 0
	j exit
	.data
	.align 2
secret:
	.word 0x1337c0de
buf:
	.space 32
`

// betweenSrc touches a Clean and a Uniform block, spins until the host has
// written both between two Run calls, then reads and overwrites the
// written bytes.
const betweenSrc = `
main:
	la t0, cbuf
	lw a1, 0(t0)        # classifies the block: Clean
	la t1, ubuf
	lw a2, 0(t1)        # classifies the block: Uniform HC
	la t2, flag
1:	lw a3, 0(t2)
	beqz a3, 1b         # spin until the host writes the flag
	lw a4, 0(t0)        # host wrote HC here
	lw a5, 0(t1)        # host wrote LC here
	lw a6, 4(t1)        # untouched HC
	sw a4, 8(t0)        # tainted store into the formerly Clean block
	sw a5, 8(t1)        # LC store into the formerly Uniform block
	sw zero, 0(t0)      # taint death in the formerly Clean block
	li a0, 0
	j exit
	.data
	.align 6
cbuf:
	.space 64
ubuf:
	.space 64
flag:
	.word 0
`

// TestFlagCacheParity holds the VP+ with its flag caches on to the VP+
// with them pinned off: the flow program, the stress generator's
// known-flow chains, the Table II compute rows, and TLM writes between Run
// calls into a Clean and a Uniform block. TestDecoupledParityViolations
// covers the programs that end in a violation.
func TestFlagCacheParity(t *testing.T) {
	t.Run("flow", func(t *testing.T) {
		img := guest.MustProgram(flowSrc)
		on := checkParity(t, img, soc.Config{Policy: flowPolicy(img)}, kernel.S, nil)
		if on.err != nil || !on.exited || on.code != 0 {
			t.Fatalf("flow program: err=%v exited=%v code=%d", on.err, on.exited, on.code)
		}
		if on.cached == 0 {
			t.Error("cache-on run summarized no block as Clean or Uniform")
		}
		// Every data access as a TLM transaction: only the register flags
		// apply, and each CPU store reaches the RAM write hook.
		cfg := soc.Config{Policy: flowPolicy(img), TaintMemViaTLM: true}
		if on := checkParity(t, img, cfg, kernel.S, nil); on.err != nil || !on.exited {
			t.Fatalf("flow program over TLM: err=%v exited=%v", on.err, on.exited)
		}
	})

	t.Run("stress", func(t *testing.T) {
		cfg := stress.Config{Steps: 8, UseDMA: true, UseMMIO: true, UseCSR: true}
		for s := uint32(1); s <= 6; s++ {
			for _, emitSecret := range []bool{true, false} {
				src := stress.Program(s*2654435761, cfg, emitSecret)
				img, err := guest.Program(src)
				if err != nil {
					t.Fatal(err)
				}
				on := checkParity(t, img, soc.Config{Policy: stress.LeakPolicy(img)}, 10*kernel.S, nil)
				var v *core.Violation
				if errors.As(on.err, &v) != emitSecret {
					t.Fatalf("seed %d emitSecret=%v: err = %v", s, emitSecret, on.err)
				}
			}
		}
	})

	t.Run("table2", func(t *testing.T) {
		rows, cached := 0, 0
		for _, w := range perf.Workloads(perf.ScaleSmall) {
			switch w.Name {
			case "qsort", "dhrystone", "primes", "sha512", "freertos-tasks":
			default:
				continue
			}
			rows++
			img := w.Build()
			horizon := w.Horizon
			if horizon == 0 {
				horizon = kernel.Forever
			}
			on := checkParity(t, img, soc.Config{Policy: perf.SessionPolicy(w, img)}, horizon, nil)
			if on.err != nil || !on.exited || on.code != 0 {
				t.Fatalf("%s: err=%v exited=%v code=%d", w.Name, on.err, on.exited, on.code)
			}
			cached += on.cached
		}
		if rows != 5 {
			t.Fatalf("ran %d Table II compute rows, want 5", rows)
		}
		if cached == 0 {
			t.Error("cache-on runs summarized no block as Clean or Uniform")
		}
	})

	t.Run("write-between-runs", func(t *testing.T) {
		img := guest.MustProgram(betweenSrc)
		cbuf, ubuf := img.MustSymbol("cbuf"), img.MustSymbol("ubuf")
		if cbuf%64 != 0 || ubuf%64 != 0 {
			t.Fatalf("buffers not block-aligned: cbuf %#x ubuf %#x", cbuf, ubuf)
		}
		l := core.IFP1()
		lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
		pol := core.NewPolicy(l, lc).WithRegion(core.RegionRule{
			Name: "ubuf", Start: ubuf, End: ubuf + 64, Classify: true, Class: hc,
		})
		write := func(pl *soc.Platform, addr uint32, v byte, tag core.Tag) {
			data := []core.TByte{{V: v, T: tag}, {V: v, T: tag}, {V: v, T: tag}, {V: v, T: tag}}
			p := tlm.Payload{Cmd: tlm.Write, Addr: addr, Data: data, From: "dma0"}
			var delay kernel.Time
			pl.Bus.Transport(&p, &delay)
			if p.Resp != tlm.OK {
				t.Fatalf("write at %#x: %v", addr, p.Resp)
			}
		}
		on := checkParity(t, img, soc.Config{Policy: pol}, kernel.S, func(pl *soc.Platform) {
			write(pl, cbuf, 0x11, hc)                   // HC into a Clean block
			write(pl, ubuf, 0x22, lc)                   // LC into a Uniform block
			write(pl, img.MustSymbol("flag"), 0x01, lc) // release the guest
		})
		if on.err != nil || !on.exited || on.code != 0 {
			t.Fatalf("err=%v exited=%v code=%d", on.err, on.exited, on.code)
		}
		// The loads after the writes must see the written tags.
		for _, c := range []struct {
			reg  string
			r    int
			want core.Tag
		}{{"a4", 14, hc}, {"a5", 15, lc}, {"a6", 16, hc}} {
			if got := on.regs[c.r].T; got != c.want {
				t.Errorf("%s tag %s, want %s", c.reg, l.Name(got), l.Name(c.want))
			}
		}
	})
}

// TestDecoupledParityViolations holds cache on against cache off on
// programs whose tainted branch, jump target or store address trips a
// clearance, so both must stop at the same instruction with the same
// violation. (The name dates from the removed decoupled monitor, which this
// test once held against the inline VP+ on the same programs.)
func TestDecoupledParityViolations(t *testing.T) {
	violations := []struct {
		name string
		body string
		arm  func(p *core.Policy)
		kind core.ViolationKind
	}{
		{"branch", `
	la t0, secret
	lw a0, 0(t0)
	bnez a0, 1f
1:	li a0, 0
	j exit
	.data
	.align 2
secret:
	.word 1
`, func(p *core.Policy) { p.WithBranchClearance(p.L.MustTag(core.ClassLC)) }, core.KindBranchClearance},
		{"jalr", `
	la t0, secret
	lw a0, 0(t0)
	la t1, exit
	add t1, t1, a0
	jr t1
	.data
	.align 2
secret:
	.word 0
`, func(p *core.Policy) { p.WithBranchClearance(p.L.MustTag(core.ClassLC)) }, core.KindBranchClearance},
		{"memaddr", `
	la t0, secret
	lw a0, 0(t0)
	la t1, buf
	add t1, t1, a0
	sw x0, 0(t1)
	li a0, 0
	j exit
	.data
	.align 2
secret:
	.word 4
buf:
	.space 64
`, func(p *core.Policy) { p.WithMemAddrClearance(p.L.MustTag(core.ClassLC)) }, core.KindMemAddrClearance},
	}
	for _, tc := range violations {
		t.Run(tc.name, func(t *testing.T) {
			img := guest.MustProgram("main:" + tc.body)
			pol := flowPolicy(img)
			tc.arm(pol)
			on := checkParity(t, img, soc.Config{Policy: pol}, kernel.S, nil)
			var v *core.Violation
			if !errors.As(on.err, &v) || v.Kind != tc.kind {
				t.Fatalf("err = %v, want a %v violation", on.err, tc.kind)
			}
		})
	}
}
