package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
)

// serveRun sends one POST /v1/run straight through ServeHTTP.
func serveRun(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	return rec
}

// encodeReport is the reply encoding the service has always used for a
// /v1/run: the RunReport through a json.Encoder indented by two spaces,
// which appends a newline.
func encodeReport(t *testing.T, rep *core.RunReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunReplyBytes pins the stored-reply path: a key's miss reply and
// its hit replies are the same bytes, every spelling of a configuration
// gets the same bytes whichever spelling filled the cache, and those
// bytes are exactly what encoding the RunReport per request produced.
func TestRunReplyBytes(t *testing.T) {
	s := New(Options{})

	for _, tc := range []struct{ first, second string }{
		// The string spelling fills the cache, the structured one hits.
		{`{"program":"comp","config":"high5+check"}`,
			`{"program":"comp","config":{"scheme":"high5","checking":true}}`},
		// The structured spelling fills the cache, the string one hits.
		{`{"program":"trav","config":{"scheme":"low3","hw":["tbr","mem"]}}`,
			`{"program":"trav","config":"low3+mem+tbr"}`},
	} {
		miss := serveRun(s, tc.first)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.first, miss.Code, miss.Body)
		}
		want := miss.Body.Bytes()
		for i, body := range []string{tc.first, tc.first, tc.second, tc.second} {
			hit := serveRun(s, body)
			if hit.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, hit.Code, hit.Body)
			}
			if ct := hit.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", body, ct)
			}
			if !bytes.Equal(hit.Body.Bytes(), want) {
				t.Errorf("reply %d to %s differs from the miss reply:\n%s\nwant:\n%s", i, body, hit.Body, want)
			}
		}
	}

	// The stored bytes are the per-request encoding of the report.
	for _, tc := range []struct{ program, config string }{
		{"comp", "high5+check"},
		{"trav", "low3+mem+tbr"},
	} {
		p := programs.MustByName(tc.program)
		cfg, err := core.ParseConfig(tc.config)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Runner().Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeReport(t, core.NewRunReport(p, cfg, res))
		got := serveRun(s, `{"program":"`+tc.program+`","config":"`+tc.config+`"}`).Body.Bytes()
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s: reply differs from the encoded report:\n%s\nwant:\n%s", tc.program, tc.config, got, want)
		}
		if !bytes.HasPrefix(got, []byte("{\n  \"schema\": ")) || !bytes.HasSuffix(got, []byte("\n}\n")) {
			t.Errorf("%s %s: reply is not two-space indented with a trailing newline:\n%s", tc.program, tc.config, got)
		}
	}
}

// TestRunReplyConcurrent sends one key from several goroutines at once,
// so the leader, the waiters on its flight and the later hits all race to
// fill the stored reply; every one must get the same bytes.
func TestRunReplyConcurrent(t *testing.T) {
	s := New(Options{})
	const callers = 8
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := serveRun(s, `{"program":"comp","config":"low3+check"}`)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got a different reply:\n%s\nwant:\n%s", i, bodies[i], bodies[0])
		}
	}
}

// maxHitAllocs is the allocation count of one cache-hit POST /v1/run
// through ServeHTTP, request and recorder construction included, as
// measured when hits began writing stored reply bytes (down from 87 when
// every hit re-encoded its report and formatted its metric keys).
const maxHitAllocs = 48

// raceEnabled is set when the tests are built with -race.
var raceEnabled bool

// TestRunHitAllocs bounds the allocations of the warm path, so per-hit
// encoding or string formatting cannot creep back unnoticed.
func TestRunHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := New(Options{})
	const body = `{"program":"comp","config":"high5+check"}`
	if rec := serveRun(s, body); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serveRun(s, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if allocs > maxHitAllocs {
		t.Errorf("cache-hit /v1/run allocates %.0f times, want at most %d", allocs, maxHitAllocs)
	}
}

// BenchmarkRunHit measures one cache-hit POST /v1/run through ServeHTTP:
// go test ./internal/server -run '^$' -bench RunHit -benchmem
func BenchmarkRunHit(b *testing.B) {
	s := New(Options{})
	const body = `{"program":"comp","config":"high5+check"}`
	if rec := serveRun(s, body); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveRun(s, body)
	}
}

// TestRunReportsEngineThatRan pins truthful engine telemetry: every
// service request carries a deadline, and the native engine delegates to
// the fused loop whenever a Ctx is attached, so a native /v1/run counts
// as requested native, ran fused, and its phases are labelled fused.
func TestRunReportsEngineThatRan(t *testing.T) {
	s := New(Options{})
	if rec := serveRun(s, `{"program":"comp","config":"high5","engine":"native"}`); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	snap := s.Runner().Metrics.Snapshot()
	if got := snap.Counters["runs_engine_total/native"]; got != 1 {
		t.Errorf("runs_engine_total/native = %d, want 1", got)
	}
	ran := `runs_engine_ran_total{requested="native",ran="fused"}`
	if got := snap.Counters[ran]; got != 1 {
		t.Errorf("%s = %d, want 1 (counters %v)", ran, got, snap.Counters)
	}
	if h, ok := snap.Histograms[`run_phase_seconds{engine="fused",phase="execute"}`]; !ok || h.Count != 1 {
		t.Errorf("execute phase not recorded under the fused engine (histograms %v)", snap.Histograms)
	}
}

// TestRunPanicIs500 checks that a panicking run fails its own request
// with a 500 naming the run, and leaves the key usable.
func TestRunPanicIs500(t *testing.T) {
	runner := core.NewRunner()
	s := New(Options{Runner: runner})
	runner.Observe = func(*programs.Program, core.Config) mipsx.Observer { panic("observer exploded") }
	rec := serveRun(s, `{"program":"comp","config":"high5"}`)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "observer exploded") {
		t.Fatalf("panicking run: status %d: %s", rec.Code, rec.Body)
	}
	runner.Observe = nil
	if rec := serveRun(s, `{"program":"comp","config":"high5"}`); rec.Code != http.StatusOK {
		t.Fatalf("rerun after panic: status %d: %s", rec.Code, rec.Body)
	}
}

// TestRouteLabelsClosed pins the per-route series to the registered
// routes: an unknown path or an unregistered method on a known path is
// counted as "other", so clients cannot mint label values.
func TestRouteLabelsClosed(t *testing.T) {
	s := New(Options{})
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/v1/run"},
		{http.MethodGet, "/no/such/path"},
		{"BREW", "/healthz"},
	} {
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(req.method, req.path, nil))
	}
	snap := s.Runner().Metrics.Snapshot()
	for key, want := range map[string]uint64{
		"http_requests_total/GET /healthz": 1,
		"http_requests_total/other":        3,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	for key, want := range map[string]uint64{
		`http_request_seconds{route="GET /healthz"}`: 1,
		`http_request_seconds{route="other"}`:        3,
	} {
		if got := snap.Histograms[key].Count; got != want {
			t.Errorf("%s count = %d, want %d", key, got, want)
		}
	}
}
