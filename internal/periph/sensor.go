package periph

import (
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// Sensor register map (byte offsets).
const (
	SensorFrame     = 0x00 // 64-byte memory-mapped data frame
	SensorFrameSize = 64
	SensorDataTag   = 0x40 // 8-bit security class of generated data
	SensorSize      = 0x44
)

// SensorPeriod is the frame generation period: 25 ms, i.e. 40 frames per
// second, matching the paper's Fig. 4.
const SensorPeriod = 25 * kernel.MS

// Sensor is the paper's Fig. 4 peripheral: a process-driven sensor with a
// memory-mapped 64-byte data frame. A run process periodically fills
// the frame with pseudo-random printable data tagged with the configurable
// data_tag register, then raises an interrupt.
//
// Writing the data_tag register requires the written byte to satisfy the
// default (public) clearance — the paper's overloaded conversion "requires
// by default a low confidentiality (LC) tag, throwing an error otherwise"
// (Fig. 4, line 47).
type Sensor struct {
	env         *Env
	name        string
	dataTagPort string // name+".data_tag", the configuration cast's clearance point
	frame       [SensorFrameSize]core.TByte
	tag         core.Tag

	seed    uint32
	frames  uint64
	started bool
	irq     func(level bool)
}

// NewSensor creates the sensor and spawns its generation process. irq pulses
// once per generated frame.
func NewSensor(env *Env, name string, irq func(bool)) *Sensor {
	s := &Sensor{env: env, name: name, dataTagPort: name + ".data_tag",
		tag: env.Default, seed: 0x5eed5eed, irq: irq}
	env.Sim.Spawn(name+".run", s.run)
	return s
}

// SetDataTag configures the security class of generated data (the
// classification of this input source).
func (s *Sensor) SetDataTag(t core.Tag) { s.tag = t }

// Frames returns the number of frames generated so far.
func (s *Sensor) Frames() uint64 { return s.frames }

// run is the paper's Fig. 4 run() loop as a process: every SensorPeriod it
// fills the frame and raises the interrupt. Its first dispatch, at spawn
// time, only arms the first period.
func (s *Sensor) run(p *kernel.Process) {
	if s.started {
		for i := range s.frame {
			// Pseudo-random printable data, classified with data_tag
			// (Fig. 4 line 21: rand() % 96 + 128 — printable range here).
			s.seed = s.seed*1664525 + 1013904223
			s.frame[i] = core.TByte{V: byte(s.seed>>24%96 + 32), T: s.tag}
		}
		s.frames++
		if s.irq != nil {
			s.irq(true)
		}
	}
	s.started = true
	p.WakeAfter(SensorPeriod)
}

// Transport implements tlm.Target.
func (s *Sensor) Transport(p *tlm.Payload, delay *kernel.Time) {
	transport(s, p, 20*kernel.NS, delay)
}

func (s *Sensor) readByte(off uint32) (core.TByte, bool) {
	switch {
	case off < SensorFrameSize:
		return s.frame[off], true
	case off == SensorDataTag:
		// The configured security class itself is not confidential
		// (Fig. 4 line 44).
		return core.TByte{V: byte(s.tag), T: s.env.Default}, true
	default:
		return core.TByte{}, false
	}
}

func (s *Sensor) writeByte(off uint32, b core.TByte) bool {
	switch {
	case off < SensorFrameSize:
		s.frame[off] = b
		return true
	case off == SensorDataTag:
		// Configuration write: the value is consumed as a plain byte, which
		// requires public clearance (implicit-cast check of Fig. 4).
		if !s.env.checkOutput(s.dataTagPort, b, s.env.Lat != nil, s.env.Default) {
			return true
		}
		if s.env.Lat != nil && int(b.V) >= s.env.Lat.Size() {
			return true // out-of-range class: ignore the write
		}
		s.tag = core.Tag(b.V)
		return true
	default:
		return false
	}
}
