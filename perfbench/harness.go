package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// passStats is what one pass measured. A pass is a fixed amount of work on
// a freshly set-up system; a run repeats passes until the window is full.
type passStats struct {
	wall    time.Duration   // the measured work
	work    int             // requests or cells issued
	lat     []time.Duration // per request (or per cell) latency
	instrs  uint64          // simulated instructions behind sim_minstr_per_s
	simWall time.Duration   // host time those instructions took
}

// system is one set-up instance of a workload's system under test.
type system struct {
	pass  func(traced bool) passStats
	close func()
	// instrs and simWall are the simulations the set-up itself ran, if
	// any, and the host time they took.
	instrs  uint64
	simWall time.Duration
}

// summary is everything a run measured.
type summary struct {
	setups     []time.Duration
	setupMinsr []float64   // Minstr/s of each set-up that simulated
	plain      []passStats // untraced passes
	traced     []passStats
	liveMB     []float64 // heap a system holds, after a collection
	cycles     uint64    // simulated cycles of the workload's distinct simulations
	t2err      float64   // table2_error_pp of their results
}

// addSetup records one set-up's time and, if it simulated, its speed.
func (s *summary) addSetup(sys *system, d time.Duration) {
	s.setups = append(s.setups, d)
	if sys != nil && sys.simWall > 0 {
		s.setupMinsr = append(s.setupMinsr, float64(sys.instrs)/sys.simWall.Seconds()/1e6)
	}
}

// loop runs passes until they fill the window (-seconds). With fresh set,
// every pass gets a newly set-up system, closed after it; otherwise one
// system serves every pass. The first warmup passes are checked but not
// timed. On a traced run every second timed pass is traced, and there are
// at least two timed passes so that both kinds exist. The run sets up at
// least minSetups times, so that setup_s is a median.
func (b *bench) loop(warmup int, fresh bool, setup func() (*system, error)) *summary {
	s := &summary{}
	window := time.Duration(b.opt.seconds * float64(time.Second))
	var measured time.Duration
	var sys *system
	for i := 0; ; i++ {
		timed := i - warmup
		traced := b.opt.trace && timed >= 0 && timed%2 == 1
		if timed > 0 && measured >= window && (!b.opt.trace || timed >= 2) {
			break
		}
		if sys == nil {
			var d time.Duration
			var err error
			sys, d, err = timeSetup(setup)
			s.addSetup(sys, d)
			if err != nil {
				b.fail("setup: %v", err)
				break
			}
		}
		p := sys.pass(traced)
		fmt.Fprintf(b.stderr, "perfbench: pass %d: wall %.4fs, traced %v\n", i, p.wall.Seconds(), traced)
		if fresh {
			s.liveMB = append(s.liveMB, liveHeapMB())
			sys.close()
			sys = nil
			// Collect the closed system now, outside any timed window, so
			// each pass starts from the same heap rather than paying for
			// the last.
			runtime.GC()
		}
		switch {
		case timed < 0:
		case traced:
			s.traced = append(s.traced, p)
		default:
			s.plain = append(s.plain, p)
		}
		if timed >= 0 {
			measured += p.wall
		}
		// A system that serves every pass is also set up on its own, for
		// setup_s, at even steps through the window: set-up samples taken
		// together would see only a few seconds of the host, where the
		// passes' median sees the whole run.
		if !fresh && timed >= 0 && len(s.setups) < minSetups &&
			measured >= time.Duration(len(s.setups))*window/minSetups && !b.extraSetup(s, setup) {
			break
		}
	}
	if sys != nil {
		// Collected only now, so that the passes paid for their own
		// collections.
		s.liveMB = append(s.liveMB, liveHeapMB())
		sys.close()
		runtime.GC()
	}
	for len(s.setups) < minSetups && b.failed == 0 && b.extraSetup(s, setup) {
	}
	fmt.Fprintf(b.stderr, "perfbench: %d set-ups, median %.4fs\n", len(s.setups), median(durations(s.setups)))
	return s
}

// extraSetup sets a system up only to time it, and closes it; it reports
// whether the set-up succeeded.
func (b *bench) extraSetup(s *summary, setup func() (*system, error)) bool {
	sys, d, err := timeSetup(setup)
	s.addSetup(sys, d)
	if err != nil {
		b.fail("setup: %v", err)
		return false
	}
	sys.close()
	runtime.GC()
	return true
}

func durations(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func (s *summary) endToEnd(b *bench) map[string]metric {
	var walls, rates, mips []float64
	var lat []float64
	for _, p := range s.plain {
		w := p.wall.Seconds()
		walls = append(walls, w)
		rates = append(rates, float64(p.work)/w)
		if p.simWall > 0 {
			mips = append(mips, float64(p.instrs)/p.simWall.Seconds()/1e6)
		}
		for _, l := range p.lat {
			lat = append(lat, float64(l.Nanoseconds())/1e6)
		}
	}
	if len(s.setupMinsr) > 0 { // the workload simulates only in set-up
		mips = s.setupMinsr
	}
	success := 1.0
	if b.attempted > 0 {
		success = 1 - float64(b.failed)/float64(b.attempted)
	}
	return map[string]metric{
		"setup_s":          {median(durations(s.setups)), "s"},
		"wall_s":           {median(walls), "s"},
		"req_per_s":        {median(rates), "1/s"},
		"latency_p50_ms":   {percentile(lat, 50), "ms"},
		"latency_p95_ms":   {percentile(lat, 95), "ms"},
		"sim_minstr_per_s": {median(mips), "Minstr/s"},
		"sim_cycles":       {float64(s.cycles), "cycles"},
		"table2_error_pp":  {s.t2err, "pp"},
		"success_ratio":    {success, "ratio"},
		"live_heap_mb":     {median(s.liveMB), "MB"},
	}
}

// liveHeapMB collects garbage and returns the heap the process still
// holds: the system's caches and the runtime's own. Unlike peak RSS, which
// the collector's timing swings between about one and two times this
// figure from pass to pass, it repeats.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// timeSetup sets the system up and returns it with the time that took.
func timeSetup(setup func() (*system, error)) (*system, time.Duration, error) {
	t0 := time.Now()
	sys, err := setup()
	return sys, time.Since(t0), err
}

// percentile interpolates linearly between the closest ranks; it is 0 for
// an empty sample, which only a failed run produces.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
