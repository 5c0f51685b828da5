package obs

import (
	"encoding/json"
	"io"
)

// Metrics is a named-counter registry. Counters are created on first use;
// callers on hot paths should cache the *uint64 from Counter instead of
// paying a map lookup per increment. Add and Get are single-threaded like
// the rest of the simulation: concurrent readers (a live metrics scraper)
// must not call them while the kernel runs — take a snapshot under whatever
// lock serializes access to the platform, via Snapshot or the
// allocation-free SnapshotInto.
type Metrics struct {
	counters map[string]*uint64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics { return &Metrics{counters: make(map[string]*uint64)} }

// Counter returns the counter cell for name, creating it at zero.
func (m *Metrics) Counter(name string) *uint64 {
	c, ok := m.counters[name]
	if !ok {
		c = new(uint64)
		m.counters[name] = c
	}
	return c
}

// Add increments a named counter by n.
func (m *Metrics) Add(name string, n uint64) { *m.Counter(name) += n }

// Get returns a counter's current value (0 if it was never touched).
func (m *Metrics) Get(name string) uint64 {
	if c, ok := m.counters[name]; ok {
		return *c
	}
	return 0
}

// Snapshot copies all counters into a plain map.
func (m *Metrics) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(m.counters))
	m.SnapshotInto(out)
	return out
}

// SnapshotInto copies every counter into dst, overwriting colliding keys
// and leaving other entries alone (clear dst first for an exact copy). It
// allocates nothing once dst has seen the counter set before — the variant
// a periodic sampler uses so a long run does not churn one map per sample.
func (m *Metrics) SnapshotInto(dst map[string]uint64) {
	for k, c := range m.counters {
		dst[k] = *c
	}
}

// WriteMetricsJSON writes a counter map as stable, indented JSON, the
// format of vp-run -metrics and the archived metrics files. encoding/json
// already marshals map keys in sorted order, so the output is deterministic
// without any pre-sorting. Metric names are written verbatim: the dotted
// names are legal JSON keys as-is, and SanitizeMetricName maps the same
// names onto the stricter Prometheus charset for the text-format exporter,
// so one key identifies one metric across both formats.
func WriteMetricsJSON(w io.Writer, counters map[string]uint64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(counters)
}

// SanitizeMetricName maps a metric key onto the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*: dots, dashes, and any other illegal
// byte become underscores, and a leading digit (or an empty name) gains an
// underscore prefix. It is the one shared sanitizer — the Prometheus
// exporter in internal/telemetry routes every name through it, and the JSON
// exporter above documents it — so the two export formats can never drift
// apart on naming.
func SanitizeMetricName(name string) string {
	legal := func(c byte, first bool) bool {
		return c == '_' || c == ':' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(!first && c >= '0' && c <= '9')
	}
	clean := name != ""
	for i := 0; i < len(name) && clean; i++ {
		clean = legal(name[i], i == 0)
	}
	if clean {
		return name
	}
	var b []byte
	if name == "" || name[0] >= '0' && name[0] <= '9' {
		b = append(b, '_')
	}
	for i := 0; i < len(name); i++ {
		if legal(name[i], false) {
			b = append(b, name[i])
		} else {
			b = append(b, '_')
		}
	}
	return string(b)
}
