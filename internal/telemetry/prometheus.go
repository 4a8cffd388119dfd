// prometheus.go renders a Registry snapshot in the Prometheus text
// exposition format (version 0.0.4), the lingua franca every metrics
// scraper ingests — replacing the ad-hoc JSON dump the sweep service
// used to serve at /metrics (the JSON snapshot survives at
// /metrics.json for the CLIs). Mapping:
//
//   - counters  -> "cntfet_<name>_total" (TYPE counter)
//   - gauges    -> "cntfet_<name>" (TYPE gauge)
//   - timers    -> "cntfet_<name>_seconds" (TYPE summary: _sum/_count)
//   - histograms-> "cntfet_<name>" (TYPE histogram: cumulative
//     _bucket{le=...} series, _sum, _count)
//
// Dots and other non-metric characters in instrument names become
// underscores. ValidatePrometheus is the matching conformance checker
// the server and cluster tests scrape /metrics through, so a malformed
// exposition is a test failure, not a silent scrape error in
// production.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromPrefix namespaces every exposed metric.
const PromPrefix = "cntfet_"

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// LatencyBuckets are the declared histogram bucket upper bounds, in
// seconds, for request latency and job duration (KeyServerRequestSeconds,
// KeyEngineJobSeconds): half-millisecond floor for cached piecewise
// jobs up to tens of seconds for cold reference tabulations.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// promName sanitises an instrument name into a valid Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*, with the cntfet_ namespace prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(PromPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value (Prometheus accepts NaN/+Inf/-Inf
// spellings).
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry snapshot in the text exposition
// format, deterministically ordered by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n) + "_total"
		fmt.Fprintf(bw, "# HELP %s Counter %q from the cntfet telemetry registry.\n", pn, n)
		fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, s.Counters[n])
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(bw, "# HELP %s Gauge %q from the cntfet telemetry registry.\n", pn, n)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, s.Gauges[n])
	}

	names = names[:0]
	for n := range s.Timers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := s.Timers[n]
		pn := promName(n) + "_seconds"
		fmt.Fprintf(bw, "# HELP %s Timer %q from the cntfet telemetry registry.\n", pn, n)
		fmt.Fprintf(bw, "# TYPE %s summary\n", pn)
		fmt.Fprintf(bw, "%s_sum %s\n", pn, promFloat(float64(t.TotalNS)/1e9))
		fmt.Fprintf(bw, "%s_count %d\n", pn, t.Count)
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(bw, "# HELP %s Histogram %q from the cntfet telemetry registry.\n", pn, n)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", pn, promFloat(bound), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", pn, h.Count)
	}
	return bw.Flush()
}

// ValidatePrometheus parses a text exposition and reports the first
// conformance violation: malformed names, labels or values, unknown
// TYPE declarations, samples preceding their TYPE line, and histograms
// missing the mandatory +Inf bucket or with _count disagreeing with
// it. It is deliberately a checker, not a full client parser — enough
// for CI to reject an exposition a real scraper would drop.
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := map[string]string{}
	infBuckets := map[string]float64{} // histogram base name -> +Inf bucket value
	counts := map[string]float64{}     // histogram base name -> _count value
	sawSample := map[string]bool{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return fmt.Errorf("line %d: malformed %s comment: %s", line, fields[1], text)
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 {
						return fmt.Errorf("line %d: TYPE wants exactly a name and a type: %s", line, text)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
					}
					if sawSample[fields[2]] {
						return fmt.Errorf("line %d: TYPE for %s after its samples", line, fields[2])
					}
					if _, dup := types[fields[2]]; dup {
						return fmt.Errorf("line %d: duplicate TYPE for %s", line, fields[2])
					}
					types[fields[2]] = fields[3]
				}
			}
			continue // other comments are free text
		}
		name, value, err := parseSample(text)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		base := sampleBase(name, types)
		sawSample[base] = true
		if types[base] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, err := bucketLE(text)
				if err != nil {
					return fmt.Errorf("line %d: %w", line, err)
				}
				if math.IsInf(le, +1) {
					infBuckets[base] = value
				}
			case strings.HasSuffix(name, "_count"):
				counts[base] = value
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for base, typ := range types {
		if typ != "histogram" || !sawSample[base] {
			continue
		}
		inf, ok := infBuckets[base]
		if !ok {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", base)
		}
		if cnt, ok := counts[base]; ok && cnt != inf { //lint:allow floatcmp exposition format requires exact agreement
			return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", base, cnt, inf)
		}
	}
	return nil
}

// sampleBase strips the _bucket/_sum/_count suffix when the remaining
// name is a declared histogram (or summary), so samples are grouped
// under their family.
func sampleBase(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t := types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// parseSample validates one sample line and returns its metric name
// and value.
func parseSample(text string) (name string, value float64, err error) {
	rest := text
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return "", 0, fmt.Errorf("sample without value: %q", text)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", 0, fmt.Errorf("unterminated label set: %q", text)
		}
		if err := validateLabels(rest[1:end]); err != nil {
			return "", 0, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", 0, fmt.Errorf("want `name[{labels}] value [timestamp]`, got %q", text)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", 0, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, value, nil
}

// validateLabels checks a comma-separated label body: name="value"
// pairs with quoted, backslash-escaped values.
func validateLabels(body string) error {
	if strings.TrimSpace(body) == "" {
		return nil
	}
	rest := body
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return fmt.Errorf("label without '=': %q", rest)
		}
		lname := strings.TrimSpace(rest[:eq])
		if !validLabelName(lname) {
			return fmt.Errorf("invalid label name %q", lname)
		}
		rest = strings.TrimSpace(rest[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("unquoted label value after %s", lname)
		}
		// Scan the quoted value honouring backslash escapes.
		i := 1
		for {
			if i >= len(rest) {
				return fmt.Errorf("unterminated label value after %s", lname)
			}
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		rest = strings.TrimSpace(rest[i+1:])
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return fmt.Errorf("label pairs must be comma-separated: %q", rest)
		}
		rest = strings.TrimSpace(rest[1:])
	}
	return nil
}

// bucketLE extracts the le label value of one _bucket sample.
func bucketLE(text string) (float64, error) {
	i := strings.Index(text, `le="`)
	if i < 0 {
		return 0, fmt.Errorf("histogram bucket without le label: %q", text)
	}
	rest := text[i+len(`le="`):]
	end := strings.Index(rest, `"`)
	if end < 0 {
		return 0, fmt.Errorf("unterminated le label: %q", text)
	}
	return parsePromValue(rest[:end])
}

// parsePromValue parses a sample value, accepting the Prometheus
// NaN/+Inf/-Inf spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
