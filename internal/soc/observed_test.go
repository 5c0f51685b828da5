package soc_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/periph"
	"vpdift/internal/soc"
	"vpdift/internal/tlm"
	"vpdift/internal/wk"
)

// The policy audit counts the DIFT engine's lattice queries, so attaching
// an observer must not move it: the observer's own joins (its record of a
// bus payload's class, its copy of an ALU join) are uncounted, and either
// one installs the same counter sets, which pin the flag caches. A covered
// WK-3 run and covered immobilizer authentications write byte-identical
// audit JSON with and without an observer.
func TestAuditIndependentOfObserver(t *testing.T) {
	audit := func(t *testing.T, run func(*obs.Observer, *cover.Cover)) {
		t.Helper()
		var out [2][]byte
		for i, o := range []*obs.Observer{nil, obs.New()} {
			cv := cover.New()
			run(o, cv)
			var buf bytes.Buffer
			if err := cv.Audit.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("audit JSON differs with an observer attached:\nwithout:\n%s\nwith:\n%s", out[0], out[1])
		}
	}
	t.Run("wk-3", func(t *testing.T) {
		var a *wk.Attack
		for _, x := range wk.Suite() {
			if x.Num == 3 {
				a = &x
			}
		}
		if a == nil {
			t.Fatal("no WK attack 3")
		}
		img, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		audit(t, func(o *obs.Observer, cv *cover.Cover) {
			pl := soc.MustNew(soc.Config{Policy: wk.Policy(img), Obs: o, Cover: cv})
			defer pl.Shutdown()
			if err := pl.Load(img); err != nil {
				t.Fatal(err)
			}
			pl.UART.Inject(a.Payload(img))
			var v *core.Violation
			if err := pl.Run(kernel.S); !errors.As(err, &v) {
				t.Fatalf("wk-3 was not detected: %v", err)
			}
		})
	})
	for _, kind := range []immo.PolicyKind{immo.PolicyBase, immo.PolicyPerByte} {
		t.Run(fmt.Sprintf("immo-auth/policy=%d", kind), func(t *testing.T) {
			audit(t, func(o *obs.Observer, cv *cover.Cover) {
				e, err := immo.NewECUWithConfig(immo.VariantFixed, kind, immo.ECUConfig{Obs: o, Cover: cv})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				challenge := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
				resp, err := e.Authenticate(challenge)
				if err != nil {
					t.Fatal(err)
				}
				if resp != immo.Expected(challenge) {
					t.Fatalf("response % x, want % x", resp, immo.Expected(challenge))
				}
			})
		})
	}
}

// The observed I/O path does not allocate: one UART status read and one
// UART TX byte, issued through the platform's bus with a reused payload,
// cost no heap allocation on the VP, on the VP+, and on an observed and
// covered VP+ whose observer ring is already at capacity (it allocates its
// chunks until then by design).
func TestObservedIOZeroAlloc(t *testing.T) {
	l := core.IFP1()
	lc := l.MustTag(core.ClassLC)
	policy := func() *core.Policy {
		return core.NewPolicy(l, lc).WithOutput("uart0.tx", lc)
	}
	const ring = 64
	for _, c := range []struct {
		name string
		cfg  func() soc.Config
	}{
		{"vp", func() soc.Config { return soc.Config{} }},
		{"vp+", func() soc.Config { return soc.Config{Policy: policy()} }},
		{"vp+observed", func() soc.Config {
			return soc.Config{
				Policy: policy(),
				Obs:    obs.NewWithOptions(obs.Options{RingCapacity: ring}),
				Cover:  cover.New(),
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			pl := soc.MustNew(c.cfg())
			defer pl.Shutdown()
			var buf [4]core.TByte
			var delay kernel.Time
			status := tlm.Payload{Cmd: tlm.Read, Addr: soc.UARTBase + periph.UARTStatus, Data: buf[:4]}
			read := func() {
				status.Resp = tlm.OK
				pl.Bus.Transport(&status, &delay)
			}
			tx := tlm.Payload{Cmd: tlm.Write, Addr: soc.UARTBase + periph.UARTTxData, Data: buf[:1]}
			write := func() {
				buf[0] = core.TByte{V: 'x', T: lc}
				tx.Resp = tlm.OK
				pl.Bus.Transport(&tx, &delay)
				pl.UART.ClearOutput() // the TX log itself is the UART's record, kept by design
			}
			// Resolve every port's counters and fill the observer's ring
			// until it evicts (each TX adds an output event; its bus event
			// carries the default class and is not recorded).
			o := pl.Observer()
			for i := 0; i < ring || o != nil && o.Evicted() == 0; i++ {
				if i == 100*ring {
					t.Fatal("the observer's ring never reached capacity")
				}
				read()
				write()
			}
			if tx.Resp != tlm.OK || status.Resp != tlm.OK {
				t.Fatalf("UART transactions failed: %v %v", status.Resp, tx.Resp)
			}
			if n := testing.AllocsPerRun(100, read); n != 0 {
				t.Errorf("UART status read allocates %.0f per transaction", n)
			}
			if n := testing.AllocsPerRun(100, write); n != 0 {
				t.Errorf("UART TX byte allocates %.0f per transaction", n)
			}
		})
	}
}
