package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// span is one client round trip, one request the server handled, or one
// pass. Spans of one request share Req; Parent is the ID of the span that
// caused this one (0 for a pass).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Span recording happens
// only in the benchmark's own code, on traced passes: around its requests
// and in a handler wrapped around the server's ServeHTTP. Untraced passes
// use it only for request IDs.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	on    atomic.Bool // the wrapped handler records only while set
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(name string, id, parent int64, req string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns a position; total sums the spans named name recorded since.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) total(from int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// wrapHandler records a "server.handler" span around every request h
// serves while the tracer is on. The client sends its round-trip span's
// ID as X-Request-Id, which the server echoes, so the handler span names
// its parent.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		rid := r.Header.Get("X-Request-Id")
		parent, _ := strconv.ParseInt(rid, 10, 64) // 0 (no parent) for a foreign ID
		t.record("server.handler", t.newID(), parent, rid, start, end)
	})
}

// write stores the spans as JSON lines in dir/file.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regDelta is the change in a Runner's exported metrics between two
// snapshots.
type regDelta struct{ a, b *obs.Snapshot }

// counter sums the change of every counter of family whose key carries the
// label value v (any key of the family when v is empty). Both key
// spellings the registry uses — `name{k="v"}` and `name/v` — match.
func (d regDelta) counter(family, v string) float64 {
	var sum float64
	for k, x := range d.b.Counters {
		if obs.FamilyName(k) == family && mentions(k, v) {
			sum += float64(x - d.a.Counters[k])
		}
	}
	return sum
}

// hist is counter's counterpart for histograms: the change in their sums
// and observation counts.
func (d regDelta) hist(family, v string) (sum, count float64) {
	for k, h := range d.b.Histograms {
		if obs.FamilyName(k) == family && mentions(k, v) {
			h0 := d.a.Histograms[k]
			sum += h.Sum - h0.Sum
			count += float64(h.Count - h0.Count)
		}
	}
	return sum, count
}

func mentions(key, v string) bool {
	return v == "" || strings.HasSuffix(key, "/"+v) || strings.Contains(key, strconv.Quote(v))
}

// hostSample reads the Go runtime's cumulative allocation and CPU figures.
type hostSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readHost() hostSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return hostSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// leaves are the layers a traced pass's total is split into. Each is a
// self time: its span (or phase) minus the children inside it.
var leaves = []string{
	"client.transport", "server.self", "server.queue_wait", "core.hit",
	"build.parse", "build.compile", "mipsx.translate", "mipsx.native_compile",
	"mipsx.execute", "core.stats_flush", "core.unattributed",
}

// remainders are the leaves computed by subtraction: client.transport is
// the round trip minus the handler, server.self the handler minus queue
// and runner time, mipsx.execute the execute phase minus the JIT carved
// out of it, and core.unattributed a miss minus its phases. A negative one
// means the spans and the exported histograms disagree.
var remainders = []string{
	"client.transport", "server.self", "mipsx.execute", "core.unattributed",
}

// layerSplit accumulates the traced passes: leaf self times and the total
// in seconds, plus the counts the ratios are built from.
type layerSplit struct {
	passes int
	v      map[string]float64
}

// runnerLayers returns the runner-side figures of one traced interval:
// the miss split by phase, hits, and the cache and engine counters. The
// caller closes the account with "miss" and "core.hit".
func runnerLayers(d regDelta) map[string]float64 {
	phase := func(p string) float64 { s, _ := d.hist("run_phase_seconds", p); return s }
	parse, compile := phase(obs.PhaseParse), phase(obs.PhaseCompile)
	translate, native := phase(obs.PhaseTranslate), phase(obs.PhaseNativeCompile)
	execute, flush := phase(obs.PhaseExecute), phase(obs.PhaseStatsFlush)
	miss, _ := d.hist("run_latency_seconds", "miss")
	hit, hits := d.hist("run_latency_seconds", "hit")
	return map[string]float64{
		"core.hit":             hit,
		"build.parse":          parse,
		"build.compile":        compile,
		"mipsx.translate":      translate,
		"mipsx.native_compile": native,
		"mipsx.execute":        execute - translate - native,
		"core.stats_flush":     flush,
		"core.unattributed":    miss - parse - compile - execute - flush,
		"miss":                 miss,
		"hit_s":                hit,
		"hits":                 hits,
		"result_hits":          d.counter("run_cache_hits_total", ""),
		"result_misses":        d.counter("run_cache_misses_total", ""),
		"image_hits":           d.counter("image_cache_hits_total", ""),
		"image_misses":         d.counter("image_cache_misses_total", ""),
		"sims":                 d.counter("runs_total", ""),
		"instrs":               d.counter("instrs_total", ""),
		"chain_hits":           d.counter("engine_chain_hits_total", "") + d.counter("native_chain_hits_total", ""),
		"block_runs":           d.counter("engine_block_runs_total", "") + d.counter("native_block_runs_total", ""),
		"native_runs":          d.counter("runs_engine_total", "native"),
		"native_fallbacks":     d.counter("native_fallbacks_total", ""),
		"elided":               d.counter("native_elided_checks_total", ""),
	}
}

// addHost adds the Go runtime's figures between two samples to pass.
func addHost(pass map[string]float64, a, b hostSample) {
	pass["alloc_bytes"] = b.allocBytes - a.allocBytes
	pass["gc_cpu"] = b.gcCPU - a.gcCPU
	pass["cpu"] = b.totalCPU - a.totalCPU
}

// close finishes one traced pass whose total is total seconds: every
// remainder must be non-negative and the leaves must add up to the total.
func (l *layerSplit) close(b *bench, total float64, pass map[string]float64) {
	for k, x := range pass {
		l.v[k] += x
	}
	for _, k := range remainders {
		if pass[k] < -1e-6 {
			b.fail("layer accounting: %s is %.6fs in a traced pass", k, pass[k])
		}
	}
	var sum float64
	for _, k := range leaves {
		sum += pass[k]
	}
	if math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		b.fail("layer accounting: leaves sum to %.9fs, traced total is %.9fs", sum, total)
	}
	l.v["total"] += total
	l.passes++
}

// layerMetrics reports the per-layer split: times per traced pass, ratios
// over all traced passes, and the tracing overhead from the traced and
// untraced pass walls of the same run.
func (s *summary) layerMetrics(l *layerSplit) map[string]metric {
	v := l.v
	n := math.Max(1, float64(l.passes))
	ms := func(k string) metric { return metric{v[k] / n * 1e3, "ms"} }
	out := map[string]metric{
		"mipsx.execute_minstr_per_s":  {ratio(v["instrs"], v["mipsx.execute"]) / 1e6, "Minstr/s"},
		"mipsx.chain_hit_ratio":       {ratio(v["chain_hits"], v["block_runs"]), "ratio"},
		"mipsx.native_fallback_ratio": {ratio(v["native_fallbacks"], v["native_runs"]), "ratio"},
		"mipsx.elided_checks":         {v["elided"] / n, "count"},
		"core.miss_ms":                ms("miss"),
		"core.hit_us":                 {ratio(v["hit_s"], v["hits"]) * 1e6, "us"},
		"core.result_hit_ratio":       {ratio(v["result_hits"], v["result_hits"]+v["result_misses"]), "ratio"},
		"core.image_hit_ratio":        {ratio(v["image_hits"], v["image_hits"]+v["image_misses"]), "ratio"},
		"server.handler_ms":           ms("handler"),
		"server.response_bytes":       {ratio(v["resp_bytes"], v["requests"]), "bytes"},
		"host.alloc_mb_per_sim":       {ratio(v["alloc_bytes"], v["sims"]) / 1e6, "MB"},
		"host.alloc_kb_per_req":       {ratio(v["alloc_bytes"], v["requests"]) / 1e3, "kB"},
		"host.gc_cpu_share":           {ratio(v["gc_cpu"], v["cpu"]), "ratio"},
		"host.peak_rss_mb":            {peakRSSMB(), "MB"},
		"trace.total_ms":              ms("total"),
		"trace.overhead_pct":          {s.tracingOverhead(), "%"},
	}
	for _, k := range leaves {
		out[k+"_ms"] = ms(k)
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark over the whole
// run. The collector's timing moves it by up to half from run to run, so it
// is reported here, beside the layers, and live_heap_mb is the end-to-end
// memory figure.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// tracingOverhead compares the median wall of the traced passes with that
// of the untraced passes of the same run, in percent.
func (s *summary) tracingOverhead() float64 {
	walls := func(ps []passStats) []float64 {
		var w []float64
		for _, p := range ps {
			w = append(w, p.wall.Seconds())
		}
		return w
	}
	return 100 * (ratio(median(walls(s.traced)), median(walls(s.plain))) - 1)
}

// splitLine renders a one-line account of the split for the run log.
func (l *layerSplit) splitLine() string {
	var b strings.Builder
	n := math.Max(1, float64(l.passes))
	fmt.Fprintf(&b, "traced total %.1f ms/pass =", l.v["total"]/n*1e3)
	for _, k := range leaves {
		if x := l.v[k]; x != 0 {
			fmt.Fprintf(&b, " %s %.1f +", k, x/n*1e3)
		}
	}
	return strings.TrimSuffix(b.String(), " +")
}
