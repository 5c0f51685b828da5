package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vpdift/internal/obs"
)

// MetricSet is one labeled group of counters — typically one simulation
// session. Labels become Prometheus label pairs on every sample line.
type MetricSet struct {
	Labels  map[string]string
	Metrics map[string]uint64
}

// namePrefix is prepended to every sanitized metric name so the platform's
// metrics land in their own Prometheus namespace.
const namePrefix = "vpdift_"

// promHelp maps the platform's metric-name prefixes to HELP text. Longest
// match wins; the table is ordered most-specific first.
var promHelp = []struct{ prefix, help string }{
	{"sim.decode_cache", "Predecoded-instruction cache statistic."},
	{"sim.", "Simulation gauge sampled from the platform."},
	{"checks.", "DIFT clearance checks performed, by check point."},
	{"violations.", "Policy violations detected, by violation kind."},
	{"bus.", "TLM bus traffic counter."},
	{"flight.", "Flight-recorder statistic."},
	{"io.", "Peripheral I/O counter."},
	{"obs.", "Observer provenance-ring counter."},
	{"serve.", "Session-server scheduler statistic."},
	{"http.", "Serving-plane HTTP statistic, by route."},
	{"build_info", "Build metadata; the value is always 1."},
	{"lub_ops", "Security-lattice least-upper-bound operations."},
	{"trace.", "Trace subsystem counter."},
	{"cover.", "Coverage gauge."},
	{"campaign.", "Campaign coverage rollup gauge."},
}

// promIsGauge reports whether a metric is exposed as a gauge rather than a
// counter. Coverage metrics describe a current level (covered blocks can
// only grow here, but conceptually they measure state, not a flow), and the
// audit dead-rule count genuinely shrinks as rules fire — the campaign
// rollups share both traits (dead_rules shrinks as cells land, edges_total
// measures merged state). The scheduler's and the flight recorder's
// instantaneous statistics (queue depth, ring occupancy) rise and fall; their
// *_total siblings are monotone. Everything else the platform emits is a
// monotone counter.
func promIsGauge(name string) bool {
	if strings.HasPrefix(name, "serve.") || strings.HasPrefix(name, "flight.") {
		return !strings.HasSuffix(name, "_total")
	}
	return strings.HasPrefix(name, "cover.") || strings.HasPrefix(name, "campaign.") ||
		name == "build_info"
}

func helpFor(name string) string {
	for _, h := range promHelp {
		if strings.HasPrefix(name, h.prefix) {
			return h.help
		}
	}
	return "vpdift platform metric."
}

// WritePrometheus renders one unlabeled metric set in the Prometheus text
// exposition format (version 0.0.4): for every counter a # HELP line, a
// # TYPE line, and a sample line, with names routed through
// obs.SanitizeMetricName and prefixed vpdift_. Output is sorted by exposed
// name, so a deterministic run produces byte-identical output.
func WritePrometheus(w io.Writer, metrics map[string]uint64) error {
	return WritePrometheusSets(w, []MetricSet{{Metrics: metrics}})
}

// WritePrometheusSets renders several labeled metric sets into one valid
// exposition: all samples sharing an exposed name are grouped under a single
// HELP/TYPE pair (the format forbids repeating them), with one sample line
// per set that carries the metric.
func WritePrometheusSets(w io.Writer, sets []MetricSet) error {
	type sample struct {
		labels string
		value  uint64
	}
	byName := make(map[string][]sample)
	gauge := make(map[string]bool)
	help := make(map[string]string)
	for _, set := range sets {
		labels := renderLabels(set.Labels)
		for name, v := range set.Metrics {
			exposed := namePrefix + obs.SanitizeMetricName(name)
			byName[exposed] = append(byName[exposed], sample{labels, v})
			if _, ok := help[exposed]; !ok {
				help[exposed] = helpFor(name)
				gauge[exposed] = promIsGauge(name)
			}
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		typ := "counter"
		if gauge[n] {
			typ = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", n, help[n], n, typ); err != nil {
			return err
		}
		samples := byName[n]
		sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", n, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels turns a label map into the {k="v",...} suffix with keys
// sorted and values escaped per the exposition format.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + labelPairs(labels) + "}"
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// LabeledHistogram is one labeled member of a histogram family — e.g. the
// request-duration histogram of one route.
type LabeledHistogram struct {
	Labels map[string]string
	Hist   *Histogram
}

// HistogramFamily is one exposed histogram: a platform-style name (routed
// through the same sanitize+prefix pipeline as counters), HELP text, and any
// number of labeled series sharing the bucket layout.
type HistogramFamily struct {
	Name   string
	Help   string
	Series []LabeledHistogram
}

// WriteHistogramFamilies renders histogram families in the text exposition
// format: per family one HELP/TYPE histogram pair, then per series the
// cumulative `_bucket` samples (`le` label, `+Inf` last), `_sum` (seconds,
// plain decimal) and `_count`. Families sort by exposed name and series by
// label set, so deterministic inputs render byte-identically. Series whose
// histogram has recorded nothing are skipped — an idle route contributes no
// 20-line bucket block to every scrape.
func WriteHistogramFamilies(w io.Writer, fams []HistogramFamily) error {
	sorted := make([]HistogramFamily, len(fams))
	copy(sorted, fams)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, fam := range sorted {
		exposed := namePrefix + obs.SanitizeMetricName(fam.Name)
		type series struct {
			labels string // rendered pairs without braces, "" when unlabeled
			h      *Histogram
		}
		live := make([]series, 0, len(fam.Series))
		for _, s := range fam.Series {
			if s.Hist == nil || s.Hist.Count() == 0 {
				continue
			}
			live = append(live, series{labelPairs(s.Labels), s.Hist})
		}
		if len(live) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", exposed, fam.Help, exposed); err != nil {
			return err
		}
		sort.Slice(live, func(i, j int) bool { return live[i].labels < live[j].labels })
		for _, s := range live {
			cum, count, sum := s.h.snapshot()
			withLE := func(le string) string {
				if s.labels == "" {
					return `{le="` + le + `"}`
				}
				return "{" + s.labels + `,le="` + le + `"}`
			}
			for i, bound := range s.h.boundsSec {
				le := strconv.FormatFloat(bound, 'g', -1, 64)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", exposed, withLE(le), cum[i]); err != nil {
					return err
				}
			}
			plain := ""
			if s.labels != "" {
				plain = "{" + s.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", exposed, withLE("+Inf"), cum[len(cum)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", exposed, plain, strconv.FormatFloat(sum, 'f', -1, 64)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", exposed, plain, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelPairs renders a label map as sorted `k="v"` pairs joined by commas,
// without the surrounding braces (so a `le` pair can be appended).
func labelPairs(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(obs.SanitizeMetricName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}
