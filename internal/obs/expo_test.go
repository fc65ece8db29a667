package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// parseExposition splits rendered exposition text into per-family HELP/TYPE
// headers and raw sample lines keyed by full sample name (with labels).
func parseExposition(t *testing.T, text string) (types map[string]string, samples map[string]float64) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]float64{}
	helped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Errorf("HELP line without text: %q", line)
			}
			helped[fields[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if !helped[fields[0]] {
				t.Errorf("TYPE before HELP for %s", fields[0])
			}
			types[fields[0]] = fields[1]
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line: %q", line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	return types, samples
}

// TestExpositionFormat renders a populated snapshot and validates the
// Prometheus text exposition: HELP/TYPE per family, parseable samples,
// counter naming, histogram bucket monotonicity, and value fidelity.
func TestExpositionFormat(t *testing.T) {
	r := New()
	r.SetSampleEvery(1)
	r.Start(PhaseTrain).End()
	r.StartSampledWorker(PhaseTermTrain, -1).End()
	r.Add(CounterTermsTrained, 11)
	r.AddPlanned(20)
	r.PoolCapacity(4)
	r.PoolWaitBegin()
	r.PoolAcquired(3*time.Microsecond, true)
	r.PoolReleased()
	r.SetAnalytic(1<<20, 1<<10)

	m := r.Snapshot()
	m.Manifest = NewManifest("frac-test")
	m.Manifest.Variant = "full"
	m.Cancelled = true

	var b strings.Builder
	if err := WriteExposition(&b, m.Families()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	types, samples := parseExposition(t, text)

	// Counters end in _total and are typed counter.
	for c := Counter(0); c < numCounters; c++ {
		name := "frac_" + c.String() + "_total"
		if types[name] != "counter" {
			t.Errorf("%s type = %q, want counter", name, types[name])
		}
		if _, ok := samples[name]; !ok {
			t.Errorf("missing sample for %s", name)
		}
	}
	if got := samples["frac_terms_trained_total"]; got != 11 {
		t.Errorf("frac_terms_trained_total = %v, want 11", got)
	}
	if got := samples["frac_terms_planned"]; got != 20 {
		t.Errorf("frac_terms_planned = %v, want 20", got)
	}
	if got := samples["frac_run_cancelled"]; got != 1 {
		t.Errorf("frac_run_cancelled = %v, want 1", got)
	}
	if got := samples["frac_analytic_peak_bytes"]; got != 1<<20 {
		t.Errorf("frac_analytic_peak_bytes = %v, want %d", got, 1<<20)
	}
	if types["frac_phase_seconds_total"] != "counter" {
		t.Errorf("frac_phase_seconds_total type = %q", types["frac_phase_seconds_total"])
	}
	if _, ok := samples[`frac_phase_spans_total{phase="train"}`]; !ok {
		t.Errorf("missing phase-labeled span counter; text:\n%s", text)
	}
	if !strings.Contains(text, `tool="frac-test"`) || !strings.Contains(text, `variant="full"`) {
		t.Errorf("build info labels missing:\n%s", text)
	}

	// Histogram: cumulative buckets, +Inf equals _count, sum consistent.
	if types["frac_pool_queue_wait_seconds"] != "histogram" {
		t.Fatalf("queue wait type = %q", types["frac_pool_queue_wait_seconds"])
	}
	var prev float64
	var bucketLines []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "frac_pool_queue_wait_seconds_bucket") {
			bucketLines = append(bucketLines, line)
		}
	}
	if len(bucketLines) == 0 {
		t.Fatal("no histogram bucket samples")
	}
	for _, line := range bucketLines {
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative at %q (%v < %v)", line, v, prev)
		}
		prev = v
	}
	lastBucket := bucketLines[len(bucketLines)-1]
	if !strings.Contains(lastBucket, `le="+Inf"`) {
		t.Errorf("last bucket is not +Inf: %q", lastBucket)
	}
	count := samples["frac_pool_queue_wait_seconds_count"]
	if prev != count {
		t.Errorf("+Inf bucket %v != _count %v", prev, count)
	}
	if count != 1 {
		t.Errorf("_count = %v, want 1 blocking acquire", count)
	}
	if samples["frac_pool_queue_wait_seconds_sum"] <= 0 {
		t.Errorf("_sum = %v, want > 0", samples["frac_pool_queue_wait_seconds_sum"])
	}
}

// TestExpositionEmptySnapshot: the zero Metrics renders a valid (if boring)
// exposition — the /metrics endpoint must not 500 before any work happens.
func TestExpositionEmptySnapshot(t *testing.T) {
	var b strings.Builder
	if err := WriteExposition(&b, Metrics{}.Families()); err != nil {
		t.Fatal(err)
	}
	types, samples := parseExposition(t, b.String())
	if len(types) == 0 {
		t.Fatal("no families rendered")
	}
	if v, ok := samples["frac_run_wall_seconds"]; !ok || v != 0 {
		t.Errorf("frac_run_wall_seconds = %v ok=%v", v, ok)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		42:     "42",
		-3:     "-3",
		1.5:    "1.5",
		0.0625: "0.0625",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestEscaping: label values with quotes/backslashes/newlines and HELP text
// with backslashes survive per the exposition format rules.
func TestEscaping(t *testing.T) {
	fams := []MetricFamily{{
		Name: "frac_test_info", Help: `path C:\tmp` + "\nsecond", Type: TypeGauge,
		Samples: []MetricSample{{Labels: []Label{{"k", `a"b\c` + "\n"}}, Value: 1}},
	}}
	var b strings.Builder
	if err := WriteExposition(&b, fams); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP frac_test_info path C:\\tmp\nsecond`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `k="a\"b\\c\n"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}
