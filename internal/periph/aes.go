package periph

import (
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// AES register map (byte offsets).
const (
	AESKey     = 0x00 // 16-byte key (write-only; reads as zero)
	AESDataIn  = 0x10 // 16-byte plaintext
	AESDataOut = 0x20 // 16-byte ciphertext (read-only)
	AESCtrl    = 0x30 // write 1: encrypt; read bit 0: done
	AESSize    = 0x34
)

// AES is the trusted crypto engine of the immobilizer case study. It is the
// platform's declassification point (paper Section IV-A): the key and
// plaintext may carry high classifications (the peripheral's input clearance
// permits them), and the produced ciphertext is declassified to the
// configured output class so it may leave on public interfaces — "changing
// the data classification to non-confidential after it has been encrypted".
//
// Declassification is a capability: the platform builder hands the AES its
// core.Declassifier; no other peripheral holds one.
type AES struct {
	env    *Env
	name   string
	inPort string // name+".in", the engine's input clearance point

	inClearanceSet bool
	inClearance    core.Tag // classes allowed to enter the engine
	decl           *core.Declassifier
	outClass       core.Tag // class of produced ciphertext

	key  [16]core.TByte
	in   [16]core.TByte
	out  [16]core.TByte
	done bool
}

// NewAES creates the engine. decl may be nil (baseline platform); then the
// ciphertext keeps the folded input tag.
func NewAES(env *Env, name string, decl *core.Declassifier) *AES {
	a := &AES{env: env, name: name, inPort: name + ".in", decl: decl, outClass: env.Default}
	return a
}

// SetInputClearance restricts which classes may be written into the engine.
// The immobilizer policy gives the AES (HC,HI) clearance, so the secret key
// is allowed in while ordinary peripherals reject it.
func (a *AES) SetInputClearance(t core.Tag) { a.inClearanceSet = true; a.inClearance = t }

// SetOutputClass configures the declassified ciphertext class.
func (a *AES) SetOutputClass(t core.Tag) { a.outClass = t }

// Transport implements tlm.Target.
func (a *AES) Transport(p *tlm.Payload, delay *kernel.Time) {
	transport(a, p, 40*kernel.NS, delay)
}

func (a *AES) readByte(off uint32) (core.TByte, bool) {
	switch {
	case off < AESKey+16:
		// Key is write-only: reading back would be a trivial leak.
		return core.TByte{V: 0, T: a.env.Default}, true
	case off < AESDataIn+16:
		return a.in[off-AESDataIn], true
	case off < AESDataOut+16:
		return a.out[off-AESDataOut], true
	case off < AESCtrl+4:
		var v uint32
		if a.done {
			v = 1
		}
		return regRead(v, a.env.Default, off-AESCtrl), true
	default:
		return core.TByte{}, false
	}
}

func (a *AES) writeByte(off uint32, b core.TByte) bool {
	if off < AESDataOut && a.inClearanceSet && a.env.Lat != nil {
		if !a.env.allowed(a.inPort, b.T, a.inClearance) {
			v := core.NewViolation(a.env.Lat, core.KindOutputClearance, b.T, a.inClearance).
				WithPort(a.inPort)
			if a.env.Obs != nil {
				a.env.Obs.OnViolation(v, a.env.Obs.LastStore(), 0)
			}
			a.env.Sim.Fatal(v)
			return true
		}
	}
	switch {
	case off < AESKey+16:
		a.key[off-AESKey] = b
		a.done = false
	case off < AESDataIn+16:
		a.in[off-AESDataIn] = b
		a.done = false
	case off < AESDataOut+16:
		// read-only
	case off < AESCtrl+4:
		if off == AESCtrl && b.V&1 != 0 {
			a.encrypt()
		}
	default:
		return false
	}
	return true
}

// encrypt runs AES-128 over the input block and declassifies the output.
func (a *AES) encrypt() {
	var key, in [16]byte
	var folded core.Tag = a.env.Default
	for i := 0; i < 16; i++ {
		key[i] = a.key[i].V
		in[i] = a.in[i].V
		folded = a.env.lub(folded, a.env.lub(a.key[i].T, a.in[i].T))
	}
	ct := aesEncryptBlock(key, in)
	outTag := folded
	if a.decl != nil {
		// The declassification step: ciphertext leaves with the configured
		// public class even though it depends on the secret key.
		outTag = a.outClass
		if a.env.Obs != nil {
			a.env.Obs.OnDeclassify(a.name, AESKey, 48, AESDataOut, 16, folded, outTag)
		}
	}
	for i := 0; i < 16; i++ {
		a.out[i] = core.TByte{V: ct[i], T: outTag}
	}
	a.done = true
}
