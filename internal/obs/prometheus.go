package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promNamespace prefixes every exposed metric name.
const promNamespace = "equitruss"

// WritePrometheus writes a Prometheus text-exposition (version 0.0.4)
// snapshot of a registry: every counter as a *_total counter, every
// collector-emitted gauge as a gauge, every histogram as a
// *_seconds histogram family plus a *_quantile_seconds gauge digest. A nil
// registry writes nothing.
func WritePrometheus(w io.Writer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	if reg != nil {
		writePromCounters(bw, reg.Snapshot())
		writePromGauges(bw, reg.GaugeSnapshot())
		for _, h := range reg.HistogramSnapshots() {
			writePromHistogram(bw, h)
		}
	}
	return bw.Flush()
}

// WriteGauges writes one gauge family per value in the Prometheus text
// format — the hook for per-instance gauges (a server's pool occupancy,
// cache size) that live outside any shared registry.
func WriteGauges(w io.Writer, gauges []GaugeValue) error {
	bw := bufio.NewWriter(w)
	writePromGauges(bw, gauges)
	return bw.Flush()
}

func writePromCounters(bw *bufio.Writer, counters []CounterValue) {
	for _, c := range counters {
		name := promNamespace + "_" + sanitizeMetricName(c.Name) + "_total"
		if c.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(c.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, c.Value)
	}
}

func writePromGauges(bw *bufio.Writer, gauges []GaugeValue) {
	for _, g := range gauges {
		name := promNamespace + "_" + sanitizeMetricName(g.Name)
		if g.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(g.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s %s\n", name, formatPromFloat(g.Value))
	}
}

// writePromHistogram writes one histogram family: cumulative le buckets in
// seconds (the power-of-two nanosecond bounds converted), _sum and _count,
// then a compact quantile digest as a separate gauge family — Prometheus
// forbids mixing histogram and summary samples under one name, so the
// precomputed quantiles ride under <name>_quantile_seconds{q="..."}.
func writePromHistogram(bw *bufio.Writer, h HistogramSnapshot) {
	name := promNamespace + "_" + sanitizeMetricName(h.Name) + "_seconds"
	if h.Help != "" {
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(h.Help))
	}
	fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
	last := -1
	for i, c := range h.Counts {
		if c > 0 {
			last = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= last; i++ {
		cum += h.Counts[i]
		le := BucketUpperNS(i) / 1e9
		fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatPromFloat(le), cum)
	}
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(bw, "%s_sum %s\n", name, formatPromFloat(float64(h.SumNS)/1e9))
	fmt.Fprintf(bw, "%s_count %d\n", name, h.Count)
	if h.Count == 0 {
		return
	}
	qname := promNamespace + "_" + sanitizeMetricName(h.Name) + "_quantile_seconds"
	fmt.Fprintf(bw, "# HELP %s estimated latency quantiles of %s\n", qname, name)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", qname)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(bw, "%s{q=%q} %s\n", qname, formatPromFloat(q), formatPromFloat(h.Quantile(q).Seconds()))
	}
}

// formatPromFloat renders a float sample value or le bound compactly
// (shortest round-trip form, exponent notation only when shorter).
func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// helpEscaper applies the exposition-format HELP escaping rules: backslash
// and line feed must be escaped so a multi-line help string cannot break
// the line-oriented format.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// sanitizeMetricName maps a counter name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_].
func sanitizeMetricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
