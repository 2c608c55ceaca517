package schemesearch

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/tags"
)

// Request parameterizes one search. Zero fields take defaults, so an
// empty request is a valid bounded search.
type Request struct {
	// Properties to enforce, by name; nil means DefaultPropertyNames.
	Properties []string `json:"properties,omitempty"`
	// Budget caps the number of property-valid candidates enumerated
	// (default 2000).
	Budget int `json:"budget,omitempty"`
	// TopK bounds the ranked list in the report (default 10).
	TopK int `json:"top_k,omitempty"`
	// Programs to sweep (default comp, trav, rat, inter — the fast mix).
	Programs []string `json:"programs,omitempty"`
	// Variants are the non-scheme halves of the swept configurations:
	// "+"-joined mixes of "check" and hardware flags, or "plain" for
	// neither (default "check" and "check+mem+tbr").
	Variants []string `json:"variants,omitempty"`
}

// DefaultBudget and DefaultTopK are the documented request defaults.
const (
	DefaultBudget = 2000
	DefaultTopK   = 10
)

// DefaultPrograms is the program mix a search sweeps when the request
// names none: the four fastest benchmarks, so default searches stay
// interactive.
var DefaultPrograms = []string{"comp", "trav", "rat", "inter"}

// DefaultVariants pairs software-only checking (where the scheme choice
// dominates) with the full Table 2 hardware assist.
var DefaultVariants = []string{"check", "check+mem+tbr"}

// Validate resolves every name in the request — properties, programs,
// variants — without running anything, so transports can distinguish a
// malformed request (client error) from a search that failed or timed
// out.
func (r Request) Validate() error {
	names := r.Properties
	if len(names) == 0 {
		names = DefaultPropertyNames
	}
	if _, err := ParseProperties(names); err != nil {
		return err
	}
	if _, err := parseVariants(r.Variants); err != nil {
		return err
	}
	progNames := r.Programs
	if len(progNames) == 0 {
		progNames = DefaultPrograms
	}
	for _, n := range progNames {
		if _, ok := programs.ByName(n); !ok {
			return fmt.Errorf("unknown program %q", n)
		}
	}
	if r.Budget < 0 || r.TopK < 0 {
		return fmt.Errorf("budget and top_k must be non-negative")
	}
	return nil
}

// Progress is one streamed progress event. Phase is "enumerate" once
// after candidate generation, then "sweep" per completed (representative,
// variant) cell.
type Progress struct {
	Phase      string `json:"phase"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Candidates int64  `json:"candidates,omitempty"`
	Classes    int    `json:"classes,omitempty"`
	Scheme     string `json:"scheme,omitempty"`
	Config     string `json:"config,omitempty"`
	Cycles     uint64 `json:"cycles,omitempty"`
}

// ConfigCycles is one scheme's score on one variant: total cycles over
// the swept programs with the per-category breakdown.
type ConfigCycles struct {
	Config     string           `json:"config"`
	Cycles     uint64           `json:"cycles"`
	Categories []core.CatCycles `json:"categories,omitempty"`
}

// RankedScheme is one row of the ranked report.
type RankedScheme struct {
	Rank         int            `json:"rank,omitempty"`
	Scheme       string         `json:"scheme"`
	Class        string         `json:"class"`
	TotalCycles  uint64         `json:"total_cycles"`
	PerConfig    []ConfigCycles `json:"per_config"`
	PropertiesOK bool           `json:"properties_ok"`
}

// Report is the search result document (schema tagsim/v1, kind
// search-report).
type Report struct {
	Schema     string           `json:"schema"`
	Kind       string           `json:"kind"`
	Properties []string         `json:"properties"`
	Budget     int              `json:"budget"`
	TopK       int              `json:"top_k"`
	Programs   []string         `json:"programs"`
	Variants   []string         `json:"variants"`
	Candidates int64            `json:"candidates"`
	Pruned     map[string]int64 `json:"pruned"`
	Classes    int              `json:"classes"`
	SweptRuns  int              `json:"swept_runs"`
	Ranked     []RankedScheme   `json:"ranked"`
	Baselines  []RankedScheme   `json:"baselines"`
	ElapsedSec float64          `json:"elapsed_sec"`
}

// BeatsBaseline reports whether some ranked scheme matches or beats the
// named hand-built scheme's cycles on at least one swept variant, and a
// sentence describing the winning cell.
func (r *Report) BeatsBaseline(name string) (bool, string) {
	var base *RankedScheme
	for i := range r.Baselines {
		if r.Baselines[i].Scheme == name {
			base = &r.Baselines[i]
		}
	}
	if base == nil {
		return false, fmt.Sprintf("no baseline %q in the report", name)
	}
	for _, rs := range r.Ranked {
		for _, pc := range rs.PerConfig {
			for _, bc := range base.PerConfig {
				if pc.Config == bc.Config && pc.Cycles <= bc.Cycles {
					return true, fmt.Sprintf("%s: %d cycles on %q vs %s's %d",
						rs.Scheme, pc.Cycles, pc.Config, name, bc.Cycles)
				}
			}
		}
	}
	return false, fmt.Sprintf("no ranked scheme matches %s on any variant", name)
}

// Engine runs searches. Runner supplies (and caches) the simulations;
// Metrics, when non-nil, receives the search_* families; Progress, when
// non-nil, is called from the search goroutine for each phase event.
type Engine struct {
	Runner   *core.Runner
	Metrics  *obs.Registry
	Progress func(Progress)
	// Workers bounds sweep concurrency (default 4).
	Workers int
	// Acquire and Release, when both set, bracket each sweep cell's
	// simulations — the server points them at its global execution slots
	// so searches queue behind (and alongside) runs and sweeps instead of
	// oversubscribing the host.
	Acquire func(ctx context.Context) error
	Release func()
}

// variant is a parsed sweep variant.
type variant struct {
	name     string
	hw       tags.HW
	checking bool
}

func parseVariants(specs []string) ([]variant, error) {
	if len(specs) == 0 {
		specs = DefaultVariants
	}
	out := make([]variant, len(specs))
	for i, v := range specs {
		out[i] = variant{name: v}
		if v == "plain" || v == "" {
			out[i].name = "plain"
			continue
		}
		// Reuse the core config grammar by prefixing a scheme name.
		cfg, err := core.ParseConfig("high5+" + v)
		if err != nil {
			return nil, fmt.Errorf("variant %q: %w", v, err)
		}
		out[i].hw, out[i].checking = cfg.HW, cfg.Checking
	}
	return out, nil
}

func (e *Engine) emit(p Progress) {
	if e.Progress != nil {
		e.Progress(p)
	}
}

func (e *Engine) phaseSeconds(phase string, start time.Time) {
	if e.Metrics != nil {
		e.Metrics.ObserveBounds(obs.Labeled("search_phase_seconds", "phase", phase),
			obs.LatencyBounds, time.Since(start).Seconds())
	}
}

// Search runs the full pipeline: enumerate → check → materialize → sweep
// → rank. Cancellation via ctx aborts the sweep between (and, through the
// Runner, inside) simulations.
func (e *Engine) Search(ctx context.Context, req Request) (*Report, error) {
	start := time.Now()
	if req.Budget == 0 {
		req.Budget = DefaultBudget
	}
	if req.TopK == 0 {
		req.TopK = DefaultTopK
	}
	if len(req.Programs) == 0 {
		req.Programs = append([]string{}, DefaultPrograms...)
	}
	propNames := req.Properties
	if len(propNames) == 0 {
		propNames = append([]string{}, DefaultPropertyNames...)
	}
	props, err := ParseProperties(propNames)
	if err != nil {
		return nil, err
	}
	variants, err := parseVariants(req.Variants)
	if err != nil {
		return nil, err
	}
	var progs []*programs.Program
	for _, name := range req.Programs {
		p, ok := programs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		progs = append(progs, p)
	}
	variantNames := make([]string, len(variants))
	for i, v := range variants {
		variantNames[i] = v.name
	}

	// Enumerate, then independently verify every candidate: the checker
	// is the contract, the propagation only an optimization.
	t0 := time.Now()
	enum, err := Enumerate(EnumOptions{Properties: props, Budget: req.Budget})
	if err != nil {
		return nil, err
	}
	e.phaseSeconds("enumerate", t0)
	t0 = time.Now()
	for _, sp := range enum.Specs {
		if err := CheckSpec(sp, props); err != nil {
			return nil, fmt.Errorf("enumerator emitted %s but the checker rejects it: %w", sp.Name(), err)
		}
	}
	e.phaseSeconds("check", t0)
	if e.Metrics != nil {
		e.Metrics.Add("search_candidates_total", uint64(len(enum.Specs)))
		for reason, n := range enum.Pruned {
			e.Metrics.Add(obs.Labeled("search_pruned_total", "reason", reason), uint64(n))
		}
	}

	// Bucket candidates into cost classes; sweep one representative per
	// class plus the four hand-built baselines.
	classes := map[string][]int{} // signature → candidate indexes, DFS order
	var sigOrder []string
	for i, sp := range enum.Specs {
		sig := Signature(sp)
		if _, seen := classes[sig]; !seen {
			sigOrder = append(sigOrder, sig)
		}
		classes[sig] = append(classes[sig], i)
	}

	type sweepTarget struct {
		display string // scheme name for progress/report rows
		kind    tags.Kind
		sig     string
		base    bool
	}
	var targets []sweepTarget
	for _, sig := range sigOrder {
		sp := enum.Specs[classes[sig][0]]
		kind, err := tags.Register(sp)
		if err != nil {
			return nil, fmt.Errorf("materialize %s: %w", sp.Name(), err)
		}
		targets = append(targets, sweepTarget{display: sp.Name(), kind: kind, sig: sig})
	}
	for _, k := range []tags.Kind{tags.High5, tags.High6, tags.Low3, tags.Low2} {
		sp, _ := tags.BuiltinSpec(k)
		targets = append(targets, sweepTarget{display: k.String(), kind: k, sig: Signature(sp), base: true})
	}

	totalCells := len(targets) * len(variants)
	e.emit(Progress{Phase: "enumerate", Total: totalCells,
		Candidates: int64(len(enum.Specs)), Classes: len(sigOrder)})

	// Sweep: each cell is one (target, variant), summing cycles and
	// categories over the program mix. The Runner caches and
	// single-flights, so repeated searches are hot.
	t0 = time.Now()
	type cellResult struct {
		target, variant int
		cc              ConfigCycles
		err             error
	}
	cells := make([]ConfigCycles, len(targets)*len(variants))
	var (
		wg       sync.WaitGroup
		next     int
		nextMu   sync.Mutex
		firstErr error
		errOnce  sync.Once
		done     int
		doneMu   sync.Mutex
	)
	workers := e.Workers
	if workers <= 0 {
		workers = 4
	}
	runCell := func(ti, vi int) (ConfigCycles, error) {
		tgt, vr := targets[ti], variants[vi]
		cfg := core.Config{Scheme: tgt.kind, HW: vr.hw, Checking: vr.checking}
		cc := ConfigCycles{Config: vr.name}
		if e.Acquire != nil {
			if err := e.Acquire(ctx); err != nil {
				return cc, err
			}
			defer e.Release()
		}
		catCycles := map[string]uint64{}
		for _, p := range progs {
			res, err := e.Runner.RunCtx(ctx, p, cfg)
			if err != nil {
				return cc, fmt.Errorf("%s under %s: %w", p.Name, tgt.display, err)
			}
			rep := core.NewRunReport(p, cfg, res)
			cc.Cycles += rep.Cycles
			for _, c := range rep.Categories {
				catCycles[c.Name] += c.Cycles
			}
		}
		var names []string
		for name := range catCycles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cc.Categories = append(cc.Categories, core.CatCycles{
				Name: name, Cycles: catCycles[name],
				Pct: pct(catCycles[name], cc.Cycles),
			})
		}
		return cc, nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				nextMu.Lock()
				i := next
				next++
				nextMu.Unlock()
				if i >= totalCells || ctx.Err() != nil {
					return
				}
				ti, vi := i/len(variants), i%len(variants)
				cc, err := runCell(ti, vi)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				cells[i] = cc
				doneMu.Lock()
				done++
				d := done
				doneMu.Unlock()
				e.emit(Progress{Phase: "sweep", Done: d, Total: totalCells,
					Scheme: targets[ti].display, Config: variants[vi].name, Cycles: cc.Cycles})
			}
		}()
	}
	wg.Wait()
	e.phaseSeconds("sweep", t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Rank every candidate by its class representative's total cycles.
	perSig := map[string][]ConfigCycles{}
	sigTotal := map[string]uint64{}
	var baselines []RankedScheme
	for ti, tgt := range targets {
		row := cells[ti*len(variants) : (ti+1)*len(variants)]
		var total uint64
		for _, cc := range row {
			total += cc.Cycles
		}
		if tgt.base {
			baselines = append(baselines, RankedScheme{
				Scheme: tgt.display, Class: tgt.sig, TotalCycles: total,
				PerConfig: row, PropertiesOK: CheckSpec(mustSpec(tgt.kind), props) == nil,
			})
			continue
		}
		perSig[tgt.sig] = row
		sigTotal[tgt.sig] = total
	}
	ranked := make([]RankedScheme, 0, len(enum.Specs))
	for _, sp := range enum.Specs {
		sig := Signature(sp)
		ranked = append(ranked, RankedScheme{
			Scheme: sp.Name(), Class: sig, TotalCycles: sigTotal[sig],
			PerConfig: perSig[sig], PropertiesOK: true,
		})
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].TotalCycles != ranked[j].TotalCycles {
			return ranked[i].TotalCycles < ranked[j].TotalCycles
		}
		return ranked[i].Scheme < ranked[j].Scheme
	})
	if len(ranked) > req.TopK {
		ranked = ranked[:req.TopK]
	}
	for i := range ranked {
		ranked[i].Rank = i + 1
	}

	rep := &Report{
		Schema:     core.SchemaVersion,
		Kind:       "search-report",
		Properties: propNames,
		Budget:     req.Budget,
		TopK:       req.TopK,
		Programs:   req.Programs,
		Variants:   variantNames,
		Candidates: int64(len(enum.Specs)),
		Pruned:     enum.Pruned,
		Classes:    len(sigOrder),
		SweptRuns:  totalCells * len(progs),
		Ranked:     ranked,
		Baselines:  baselines,
		ElapsedSec: time.Since(start).Seconds(),
	}
	e.emit(Progress{Phase: "done", Done: totalCells, Total: totalCells,
		Candidates: rep.Candidates, Classes: rep.Classes})
	return rep, nil
}

func mustSpec(k tags.Kind) tags.Spec {
	sp, ok := tags.SpecOf(k)
	if !ok {
		panic(fmt.Sprintf("no spec for kind %v", k))
	}
	return sp
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
