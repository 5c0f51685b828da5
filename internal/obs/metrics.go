package obs

import (
	"encoding/json"
	"io"
)

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
