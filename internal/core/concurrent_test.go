package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/tags"
)

// TestConcurrentRunSingleFlight hammers one (program, config) pair from
// many goroutines plus a Prewarm of the same pair: exactly one simulation
// may execute, so the metrics registry must count one run — cached replays
// are not double-counted.
func TestConcurrentRunSingleFlight(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("comp")
	cfg := Baseline(false)

	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(p, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Prewarm([]*programs.Program{p}, []Config{cfg}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Result — cache not shared", i)
		}
	}
	snap := r.Metrics.Snapshot()
	if got := snap.Counters["runs_total"]; got != 1 {
		t.Errorf("runs_total = %d, want 1 (single-flight must record one run)", got)
	}
	if got := snap.Counters["run_cache_misses_total"]; got != 1 {
		t.Errorf("run_cache_misses_total = %d, want 1", got)
	}
	if hits := snap.Counters["run_cache_hits_total"]; hits < callers-1 {
		t.Errorf("run_cache_hits_total = %d, want >= %d", hits, callers-1)
	}
}

// Parallel Run and Prewarm across several distinct pairs: each unique pair
// simulates exactly once.
func TestParallelPrewarmAndRunDistinctPairs(t *testing.T) {
	r := NewRunner()
	ps := []*programs.Program{programs.MustByName("comp"), programs.MustByName("trav")}
	cfgs := []Config{Baseline(false), Baseline(true), {Scheme: tags.Low3}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.Prewarm(ps, cfgs); err != nil {
			t.Error(err)
		}
	}()
	for _, p := range ps {
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(p *programs.Program, cfg Config) {
				defer wg.Done()
				if _, err := r.Run(p, cfg); err != nil {
					t.Error(err)
				}
			}(p, cfg)
		}
	}
	wg.Wait()

	want := uint64(len(ps) * len(cfgs))
	if got := r.Metrics.Snapshot().Counters["runs_total"]; got != want {
		t.Errorf("runs_total = %d, want %d (each unique pair exactly once)", got, want)
	}
	if got := r.CacheLen(); got != int(want) {
		t.Errorf("CacheLen = %d, want %d", got, want)
	}
}

func TestRunCtxCanceledNotCached(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("comp")
	cfg := Baseline(false)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, p, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on canceled ctx returned %v", err)
	}
	if got := r.CacheLen(); got != 0 {
		t.Fatalf("canceled run was cached (CacheLen = %d)", got)
	}
	if got := r.Metrics.Snapshot().Counters["runs_canceled_total"]; got != 1 {
		t.Errorf("runs_canceled_total = %d, want 1", got)
	}

	// The runner must recover: a later call with a live context succeeds.
	if _, err := r.Run(p, cfg); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}

// A deadline must stop a long simulation mid-run, far sooner than the run
// would complete.
func TestRunCtxDeadlineStopsMidRun(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("boyer") // ~10^8 cycles, hundreds of ms
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.RunCtx(ctx, p, Baseline(true))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx returned %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v — simulation did not stop mid-run", d)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	r := NewRunner()
	r.CacheCap = 2
	p := programs.MustByName("comp")
	cfgs := []Config{Baseline(false), Baseline(true), {Scheme: tags.Low3}}
	for _, cfg := range cfgs {
		if _, err := r.Run(p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CacheLen(); got != 2 {
		t.Fatalf("CacheLen = %d, want 2", got)
	}
	snap := r.Metrics.Snapshot()
	if got := snap.Counters["run_cache_evictions_total"]; got != 1 {
		t.Errorf("run_cache_evictions_total = %d, want 1", got)
	}
	// The evicted entry (the oldest, cfgs[0]) re-simulates; the newest is
	// still a hit.
	if _, err := r.Run(p, cfgs[2]); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics.Snapshot().Counters["run_cache_hits_total"]; got != 1 {
		t.Errorf("hit counter after MRU re-run = %d, want 1", got)
	}
	if _, err := r.Run(p, cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics.Snapshot().Counters["runs_total"]; got != 4 {
		t.Errorf("runs_total = %d, want 4 (evicted pair re-simulated)", got)
	}
}

// A panic in an uncached run (here from the Observe hook) must release
// its flight: the leader gets a *PanicError naming the run, a waiter on
// the same key gets the error instead of blocking until its deadline,
// and the next request for the key runs again.
func TestRunPanicReleasesFlight(t *testing.T) {
	r := NewRunner()
	p := programs.MustByName("comp")
	cfg := Baseline(false)

	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	r.Observe = func(*programs.Program, Config) mipsx.Observer {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		panic("observer exploded")
	}
	lead := make(chan error, 1)
	go func() {
		_, err := r.RunEngineCtx(context.Background(), p, cfg, mipsx.EngineNative)
		lead <- err
	}()
	<-entered
	wait := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := r.RunCtx(ctx, p, cfg)
		wait <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the flight
	close(release)

	var pe *PanicError
	if err := <-lead; !errors.As(err, &pe) {
		t.Fatalf("leader got %v, want a *PanicError", err)
	}
	if pe.Program != p.Name || pe.Config != cfg.Key() || pe.Engine != mipsx.EngineNative ||
		pe.Value != "observer exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError does not name the run: %+v", pe)
	}
	if err := <-wait; !errors.As(err, &pe) {
		t.Fatalf("waiter got %v, want a *PanicError", err)
	}
	r.mu.Lock()
	inflight := len(r.inflight)
	r.mu.Unlock()
	if inflight != 0 || r.CacheLen() != 0 {
		t.Fatalf("after the panic: %d flights open, %d results cached, want 0 and 0", inflight, r.CacheLen())
	}

	r.Observe = nil
	if _, err := r.Run(p, cfg); err != nil {
		t.Fatalf("run after the panic: %v", err)
	}
	if got := r.Metrics.Snapshot().Counters["runs_total"]; got != 1 {
		t.Errorf("runs_total = %d, want 1 (the key ran again)", got)
	}
}

// TestConcurrentMachineReuse runs plain and memory-tagged keys of two
// programs, so machines of several memory sizes, interleaved from several
// goroutines through one runner. Its one-entry result cache makes nearly
// every call simulate, so released machine memories are reused across
// keys, sizes and goroutines. Every result must equal the same key's
// result from a fresh runner. The pool may drop a released buffer (it
// does at random under -race), so equality must hold whether or not a
// buffer was reused.
func TestConcurrentMachineReuse(t *testing.T) {
	type runKey struct {
		p   *programs.Program
		cfg Config
	}
	var keys []runKey
	for _, name := range []string{"comp", "trav"} {
		for _, spelling := range []string{"high5", "low3+check", "high5+memtag", "low2+check+memtaghw"} {
			cfg, err := ParseConfig(spelling)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, runKey{programs.MustByName(name), cfg})
		}
	}
	want := make([]*Result, len(keys))
	for i, k := range keys {
		res, err := NewRunner().Run(k.p, k.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	r := NewRunner()
	r.CacheCap = 1
	engines := []mipsx.Engine{mipsx.EngineTranslated, mipsx.EngineNative}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds*len(keys); n++ {
				i := (n*(2*g+1) + g) % len(keys) // a different order per goroutine
				k := keys[i]
				res, err := r.RunEngineCtx(context.Background(), k.p, k.cfg, engines[(n+g)%len(engines)])
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stats != want[i].Stats || res.Value != want[i].Value || res.Output != want[i].Output {
					t.Errorf("goroutine %d: %s %s differs from a fresh runner's run (cycles %d, want %d; value %s, want %s)",
						g, k.p.Name, k.cfg, res.Stats.Cycles, want[i].Stats.Cycles, res.Value, want[i].Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if runs := r.Metrics.Snapshot().Counters["runs_total"]; runs < uint64(len(keys)) {
		t.Errorf("runs_total = %d, want at least %d simulations", runs, len(keys))
	}
}
