package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fullFixtureRegistry exercises every metric kind plus the HELP-escaping
// edge cases: a backslash and an embedded newline in help text.
func fullFixtureRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests", "served requests").Add(12)
	r.Counter("tricky", "path C:\\tmp\nsecond line").Add(1)
	r.RegisterCollector(func(emit func(GaugeValue)) {
		emit(GaugeValue{Name: "pool_in_use", Help: "slots busy", Value: 3})
		emit(GaugeValue{Name: "ratio", Help: "a fractional gauge", Value: 0.25})
	})
	r.RegisterCollector(func(emit func(GaugeValue)) {
		emit(GaugeValue{Name: "collected", Help: "from a collector", Value: 7})
	})
	h := r.Histogram("request_latency", "request wall time")
	h.Observe(900 * time.Nanosecond) // bucket 10
	h.Observe(900 * time.Nanosecond) // bucket 10
	h.Observe(70 * time.Microsecond) // bucket 17
	h.Observe(3 * time.Millisecond)  // bucket 22
	r.Histogram("empty_latency", "never observed")
	return r
}

// TestPrometheusFullGolden pins the complete exposition — counters,
// gauges, collector output, and histograms with quantile digests — and lints every line against the text-format grammar.
func TestPrometheusFullGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fullFixtureRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP equitruss_tricky_total path C:\\\\tmp\\nsecond line",
		"# TYPE equitruss_pool_in_use gauge",
		"equitruss_pool_in_use 3",
		"equitruss_collected 7",
		"# TYPE equitruss_request_latency_seconds histogram",
		`equitruss_request_latency_seconds_bucket{le="+Inf"} 4`,
		"equitruss_request_latency_seconds_count 4",
		`equitruss_request_latency_quantile_seconds{q="0.99"}`,
		`equitruss_empty_latency_seconds_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	lintExposition(t, out)
	checkGolden(t, "prometheus_full.golden", buf.Bytes())
}

// lintExposition validates the text exposition format version 0.0.4 line
// by line: comment grammar, sample grammar, TYPE-before-samples, no
// duplicate TYPE/HELP per family, sorted cumulative histogram buckets
// ending in +Inf with a count that matches.
func lintExposition(t *testing.T, out string) {
	t.Helper()
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	sampled := map[string]bool{} // family -> samples seen
	type bucketState struct {
		lastLE  float64
		lastCum uint64
		infSeen bool
	}
	buckets := map[string]*bucketState{}
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
			// Escaped help must not contain a raw backslash outside \\ / \n.
			for i := 0; i < len(help); i++ {
				if help[i] == '\\' {
					if i+1 >= len(help) || (help[i+1] != '\\' && help[i+1] != 'n') {
						t.Fatalf("line %d: unescaped backslash in HELP: %q", ln+1, help)
					}
					i++
				}
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if sampled[name] {
				t.Fatalf("line %d: TYPE for %s after its samples", ln+1, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 1 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name := line[:nameEnd]
		rest := line[nameEnd:]
		if strings.HasPrefix(rest, "{") {
			close := strings.Index(rest, "} ")
			if close < 0 {
				t.Fatalf("line %d: unterminated label set %q", ln+1, line)
			}
			rest = rest[close+1:]
		}
		valStr := strings.TrimSpace(rest)
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %s has no preceding TYPE", ln+1, name)
		}
		sampled[family] = true
		if typed[family] == "histogram" && strings.HasSuffix(name, "_bucket") {
			bs := buckets[family]
			if bs == nil {
				bs = &bucketState{lastLE: -1}
				buckets[family] = bs
			}
			le := extractLabel(t, line, "le")
			cum, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("line %d: non-integer bucket count %q", ln+1, valStr)
			}
			if cum < bs.lastCum {
				t.Fatalf("line %d: histogram %s buckets not cumulative", ln+1, family)
			}
			bs.lastCum = cum
			if le == "+Inf" {
				bs.infSeen = true
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil || f <= bs.lastLE {
					t.Fatalf("line %d: le=%q not ascending (prev %v)", ln+1, le, bs.lastLE)
				}
				bs.lastLE = f
			}
		}
		if strings.HasSuffix(name, "_count") && typed[family] == "histogram" {
			bs := buckets[family]
			if bs == nil || !bs.infSeen {
				t.Fatalf("line %d: histogram %s has no +Inf bucket before _count", ln+1, family)
			}
			cnt, _ := strconv.ParseUint(valStr, 10, 64)
			if cnt != bs.lastCum {
				t.Fatalf("line %d: histogram %s _count %d != +Inf bucket %d", ln+1, family, cnt, bs.lastCum)
			}
		}
	}
	for fam, typ := range typed {
		if typ == "histogram" {
			if bs := buckets[fam]; bs == nil || !bs.infSeen {
				t.Fatalf("histogram %s missing +Inf bucket", fam)
			}
		}
	}
}

func extractLabel(t *testing.T, line, key string) string {
	t.Helper()
	marker := key + `="`
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("sample %q missing label %s", line, key)
	}
	rest := line[i+len(marker):]
	j := strings.Index(rest, `"`)
	if j < 0 {
		t.Fatalf("sample %q has unterminated %s label", line, key)
	}
	return rest[:j]
}

// TestEscapeHelp pins the escaping rules directly.
func TestEscapeHelp(t *testing.T) {
	got := escapeHelp("a\\b\nc")
	if got != `a\\b\nc` {
		t.Fatalf("escapeHelp = %q", got)
	}
	if escapeHelp("plain") != "plain" {
		t.Fatal("plain help must be unchanged")
	}
}

// TestWriteGauges covers the standalone per-instance gauge writer.
func TestWriteGauges(t *testing.T) {
	var buf bytes.Buffer
	err := WriteGauges(&buf, []GaugeValue{
		{Name: "server_pool_in_use", Help: "busy slots", Value: 2},
		{Name: "server_inflight_limit", Value: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE equitruss_server_pool_in_use gauge",
		"equitruss_server_pool_in_use 2",
		"equitruss_server_inflight_limit 17",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteGauges missing %q:\n%s", want, out)
		}
	}
	lintExposition(t, out)
}

// TestHistogramExpositionParses feeds a live histogram through the writer
// and re-checks the quantile digest appears with all four q labels.
func TestHistogramExpositionParses(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "x")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lintExposition(t, out)
	for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
		if !strings.Contains(out, fmt.Sprintf("equitruss_lat_quantile_seconds{q=%q}", q)) {
			t.Fatalf("missing quantile %s:\n%s", q, out)
		}
	}
}
