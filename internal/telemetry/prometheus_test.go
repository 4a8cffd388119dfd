package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusRoundTrip populates every instrument type and
// checks the exposition both against the conformance validator and for
// the concrete lines a Prometheus scrape relies on.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry(true)
	r.Counter(KeySweepPoints).Add(5)
	r.Gauge("cluster.replica.0.healthy").Set(1)
	r.Timer(KeyFettoySolveTime).Observe(1500 * time.Microsecond)
	h := r.Histogram(KeyServerRequestSeconds, LatencyBuckets)
	h.Observe(0.0007)
	h.Observe(0.3)
	h.Observe(40) // beyond the last bound: lands only in +Inf

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE cntfet_sweep_points_total counter",
		"cntfet_sweep_points_total 5",
		"# TYPE cntfet_cluster_replica_0_healthy gauge",
		"cntfet_cluster_replica_0_healthy 1",
		"# TYPE cntfet_fettoy_solve_time_seconds summary",
		"cntfet_fettoy_solve_time_seconds_count 1",
		"# TYPE cntfet_server_request_seconds histogram",
		`cntfet_server_request_seconds_bucket{le="0.001"} 1`,
		`cntfet_server_request_seconds_bucket{le="+Inf"} 3`,
		"cntfet_server_request_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusEmpty checks an empty registry still produces a
// valid (empty) exposition.
func TestWritePrometheusEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry(true).WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := ValidatePrometheus(&buf); err != nil {
		t.Fatalf("empty exposition fails validation: %v", err)
	}
}

// TestValidatePrometheusRejects feeds the validator the malformations
// it exists to catch: the /metrics conformance tests are only as good
// as these.
func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":  "1bad 3\n",
		"bad value":        "cntfet_ok not_a_number\n",
		"bare brace":       "cntfet_ok{le=\"x\" 1\n",
		"bad label name":   "cntfet_ok{2le=\"x\"} 1\n",
		"unquoted label":   "cntfet_ok{le=x} 1\n",
		"type after use":   "cntfet_ok 1\n# TYPE cntfet_ok counter\n",
		"duplicate type":   "# TYPE cntfet_ok counter\n# TYPE cntfet_ok counter\ncntfet_ok 1\n",
		"histogram no inf": "# TYPE cntfet_h histogram\ncntfet_h_bucket{le=\"1\"} 1\ncntfet_h_sum 1\ncntfet_h_count 1\n",
		"count mismatch": "# TYPE cntfet_h histogram\ncntfet_h_bucket{le=\"+Inf\"} 2\n" +
			"cntfet_h_sum 1\ncntfet_h_count 1\n",
	}
	for name, in := range cases {
		if err := ValidatePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
}

// TestPromName checks dotted registry keys sanitize into the
// prefixed underscore namespace.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"sweep.points":          "cntfet_sweep_points",
		"server.cache.hits":     "cntfet_server_cache_hits",
		"sweep.worker.3.points": "cntfet_sweep_worker_3_points",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
