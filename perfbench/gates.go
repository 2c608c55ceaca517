package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/mipsx"
	"repro/internal/programs"
	"repro/internal/rt"
	"repro/internal/sexpr"
	"repro/internal/tags"
)

// The paper's published Table 2 cells for rows 1–7 with run-time checking
// (% of cycles eliminated), as EXPERIMENTS.md quotes them. There is no
// real-hardware reference, so the gap to these is the only accuracy
// figure the repository can give.
var paperOn = []float64{4.6, 9.3, 13.9, 0.7, 16.3, 18.2, 22.1}

// cell is a Table 2 percentage as the table renders it (one decimal).
func cell(v float64) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 1, 64), 64)
	return f
}

// serviceTable2Error is the mean absolute gap, in percentage points,
// between the paper's checking column of Table 2 (rows 1–7) and the one
// the service's replies give: cycles eliminated against high5+check,
// averaged over the short programs.
func serviceTable2Error(keys []key, got []report) float64 {
	cycles := map[string]uint64{}
	for i, k := range keys {
		cycles[k.p.Name+"/"+k.cfg.Key()] = got[i].Cycles
	}
	progs := programNames(keys)
	var sum float64
	for i, row := range core.Table2Rows[:len(paperOn)] {
		var saved float64
		for _, p := range progs {
			base := float64(cycles[p+"/"+core.Baseline(true).Key()])
			with := float64(cycles[p+"/"+core.Config{Scheme: tags.High5, HW: row.HW, Checking: true}.Key()])
			saved += 100 * (base - with) / base
		}
		sum += math.Abs(cell(saved/float64(len(progs))) - paperOn[i])
	}
	return sum / float64(len(paperOn))
}

// key is one (program, config) pair the service workloads request.
type key struct {
	p    *programs.Program
	cfg  core.Config
	body []byte // the POST /v1/run body
}

// shortKeys is a service workload's key space: the named programs × cfgs,
// each requested on the native engine.
func shortKeys(names []string, cfgs []core.Config) ([]key, error) {
	var keys []key
	for _, name := range names {
		p, ok := programs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", name)
		}
		for _, cfg := range cfgs {
			body, err := json.Marshal(map[string]string{
				"program": p.Name, "config": cfg.String(), "engine": "native",
			})
			if err != nil {
				return nil, err
			}
			keys = append(keys, key{p: p, cfg: cfg, body: body})
		}
	}
	return keys, nil
}

func programNames(keys []key) []string {
	var names []string
	for i, k := range keys {
		if i == 0 || k.p != keys[i-1].p {
			names = append(names, k.p.Name)
		}
	}
	return names
}

// report is the part of a /v1/run response the gates read.
type report struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Result  string `json:"result"`
	Cycles  uint64 `json:"cycles"`
	Instrs  uint64 `json:"instrs"`
}

// checkResponse decodes one /v1/run reply to k and checks its status, that
// it answers k, and that its value is the program's Expected.
func checkResponse(k key, status int, body []byte) (report, error) {
	var rep report
	if status != 200 {
		return rep, fmt.Errorf("%s %s: HTTP %d: %s", k.p.Name, k.cfg, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("%s %s: decoding the reply: %v", k.p.Name, k.cfg, err)
	}
	if rep.Program != k.p.Name || rep.Config != k.cfg.String() {
		return rep, fmt.Errorf("%s %s: reply is for %s %s", k.p.Name, k.cfg, rep.Program, rep.Config)
	}
	if rep.Result != k.p.Expected {
		return rep, fmt.Errorf("%s %s: value %s, want %s", k.p.Name, k.cfg, rep.Result, k.p.Expected)
	}
	return rep, nil
}

// referenceCheck re-runs a seeded sample of keys on the reference engine,
// built and run directly (rt.Build, Image.NewMachine, Machine.RunEngine),
// and checks the service's cycles and value for each against it.
func (b *bench) referenceCheck(keys []key, got []report) {
	maxCycles := core.NewRunner().MaxCycles
	n := min(b.opt.size.refSample, len(keys))
	for _, i := range b.rng.Perm(len(keys))[:n] {
		k := keys[i]
		b.attempted++
		img, err := rt.Build(k.p.Source, rt.BuildOptions{
			Scheme: k.cfg.Scheme, HW: k.cfg.HW, Checking: k.cfg.Checking, HeapWords: k.p.HeapWords,
		})
		if err != nil {
			b.fail("reference %s %s: build: %v", k.p.Name, k.cfg, err)
			continue
		}
		m := img.NewMachine()
		m.MaxCycles = maxCycles
		if err := m.RunEngine(mipsx.EngineReference); err != nil {
			b.fail("reference %s %s: run: %v", k.p.Name, k.cfg, err)
			continue
		}
		value := sexpr.String(img.DecodeItem(m.Mem, m.Regs[mipsx.RRet]))
		if m.Stats.Cycles != got[i].Cycles || value != got[i].Result {
			b.fail("reference %s %s: %d cycles, value %s; the service said %d cycles, value %s",
				k.p.Name, k.cfg, m.Stats.Cycles, value, got[i].Cycles, got[i].Result)
		}
	}
}
