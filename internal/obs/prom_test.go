package obs

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTimeline(t *testing.T) {
	tl := NewTimeline()
	end := tl.Start("parse")
	end()
	begin := time.Now()
	tl.Record("execute", begin, 5*time.Millisecond)
	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Phase != "parse" || spans[1].Phase != "execute" {
		t.Fatalf("phases %q, %q", spans[0].Phase, spans[1].Phase)
	}
	if spans[1].DurUS < 4999 || spans[1].DurUS > 5001 {
		t.Errorf("execute dur %.1fus, want ~5000", spans[1].DurUS)
	}
	if spans[1].StartUS < 0 {
		t.Errorf("execute start %.1fus, want >= 0", spans[1].StartUS)
	}

	doc := tl.Doc("tagsim/v1", "boyer", "high5", "native")
	if doc.Kind != "run-timeline" || doc.Program != "boyer" || len(doc.Spans) != 2 {
		t.Errorf("doc = %+v", doc)
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"phase": "execute"`) {
		t.Errorf("JSON missing execute span:\n%s", buf.String())
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.Start("x")()
	tl.Record("y", time.Now(), time.Second)
	if tl.Spans() != nil || tl.Elapsed() != 0 {
		t.Error("nil timeline must be inert")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 5, 7, 7, 20} {
		h.Observe(v)
	}
	// 10 observations: p50 rank 5 lands in the (2,4] bucket.
	if p50 := h.Quantile(0.50); p50 < 2 || p50 > 4 {
		t.Errorf("p50 = %g, want within (2,4]", p50)
	}
	// p99 rank 9.9 lands in the +Inf bucket, clamped to the observed max.
	if p99 := h.Quantile(0.99); p99 > 20 || p99 < 8 {
		t.Errorf("p99 = %g, want within (8,20]", p99)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("q=1 → %g, want max 20", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q=0 → %g, want 0", q)
	}
	// Single-bucket mass: quantiles stay inside [min, max].
	h2 := NewHistogram([]float64{1e6})
	h2.Observe(3)
	h2.Observe(5)
	if p50 := h2.Quantile(0.5); p50 < 3 || p50 > 5 {
		t.Errorf("clamped p50 = %g, want within [3,5]", p50)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
}

func TestLabeledAndFamilyName(t *testing.T) {
	key := Labeled("run_phase_seconds", "engine", "native", "phase", "execute")
	if key != `run_phase_seconds{engine="native",phase="execute"}` {
		t.Errorf("Labeled = %q", key)
	}
	for _, tc := range []struct{ key, family string }{
		{key, "run_phase_seconds"},
		{`cycles_total{program="boyer",config="high5+check"}`, "cycles_total"},
		{"runs_total", "runs_total"},
		{`http_requests_total{route="GET /metrics"}`, "http_requests_total"},
	} {
		if got := FamilyName(tc.key); got != tc.family {
			t.Errorf("FamilyName(%q) = %q, want %q", tc.key, got, tc.family)
		}
	}
}

// TestWritePrometheus validates the exposition structurally: every line
// is a # TYPE comment or a name{labels} value sample, bucket series are
// cumulative and end at +Inf == _count, and labeled keys render as labels.
func TestWritePrometheus(t *testing.T) {
	g := NewRegistry()
	g.Add("runs_total", 3)
	g.Add(Labeled("cycles_total", "program", "boyer", "config", "high5+check"), 1234)
	g.Add(Labeled("http_responses_total", "code", "200"), 7)
	g.ObserveBounds(Labeled("run_phase_seconds", "engine", "native", "phase", "execute"),
		LatencyBounds, 0.003)
	g.ObserveBounds(Labeled("run_phase_seconds", "engine", "native", "phase", "execute"),
		LatencyBounds, 0.2)
	g.Observe("run_cycles", 1e6)

	var buf bytes.Buffer
	if err := g.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE runs_total counter\n",
		"runs_total 3\n",
		`cycles_total{program="boyer",config="high5+check"} 1234`,
		`http_responses_total{code="200"} 7`,
		"# TYPE run_phase_seconds histogram\n",
		`run_phase_seconds_count{engine="native",phase="execute"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Structural pass over every sample line.
	bucketCum := map[string]uint64{} // family+labels-sans-le → last cumulative value
	counts := map[string]uint64{}
	infs := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("non-numeric value in %q", line)
		}
		if i := strings.Index(series, "_bucket{"); i >= 0 {
			base := series[:i] + stripLe(series[i+7:])
			v, _ := strconv.ParseUint(val, 10, 64)
			if v < bucketCum[base] {
				t.Errorf("bucket series not cumulative at %q", line)
			}
			bucketCum[base] = v
			if strings.Contains(series, `le="+Inf"`) {
				infs[base] = v
			}
		}
		if i := strings.Index(series, "_count"); i >= 0 && !strings.Contains(series, "_bucket") {
			v, _ := strconv.ParseUint(val, 10, 64)
			counts[series[:i]+series[i+6:]] = v
		}
	}
	if len(infs) == 0 {
		t.Fatal("no +Inf buckets emitted")
	}
	for base, inf := range infs {
		if counts[base] != inf {
			t.Errorf("series %q: +Inf bucket %d != _count %d", base, inf, counts[base])
		}
	}
}

// stripLe removes the le label from a rendered label block so bucket
// series group with their _count.
func stripLe(labels string) string {
	i := strings.Index(labels, `le="`)
	if i < 0 {
		return labels
	}
	j := strings.IndexByte(labels[i+4:], '"')
	rest := labels[i+4+j+1:]
	prefix := labels[:i]
	prefix = strings.TrimSuffix(prefix, ",")
	rest = strings.TrimPrefix(rest, ",")
	if prefix == "{" || rest == "}" {
		if prefix+rest == "{}" {
			return ""
		}
		return prefix + rest
	}
	return prefix + "," + rest
}
