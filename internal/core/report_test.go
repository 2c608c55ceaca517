package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/programs"
)

// TestRunReportRoundTrip runs one program and asserts the JSON report
// round-trips through encoding/json and carries every figure the text
// output prints.
func TestRunReportRoundTrip(t *testing.T) {
	p, ok := programs.ByName("inter")
	if !ok {
		t.Fatal("program inter not found")
	}
	r := NewRunner()
	cfg := Baseline(true)
	res, err := r.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewRunReport(p, cfg, res)

	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %q, want %q", rep.Schema, SchemaVersion)
	}
	if rep.Cycles != res.Stats.Cycles || rep.Instrs != res.Stats.Instrs {
		t.Errorf("report cycles/instrs %d/%d, want %d/%d",
			rep.Cycles, rep.Instrs, res.Stats.Cycles, res.Stats.Instrs)
	}
	if len(rep.Categories) == 0 {
		t.Error("report has no category breakdown")
	}
	if len(rep.RTCheckCost) == 0 {
		t.Error("checking run has no rt_check_cost breakdown")
	}
	if rep.Error != nil {
		t.Errorf("successful run carries error %+v", rep.Error)
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != rep.Cycles || back.TagPct != rep.TagPct ||
		len(back.Categories) != len(rep.Categories) ||
		len(back.RTCheckCost) != len(rep.RTCheckCost) {
		t.Errorf("JSON round-trip lost data:\nbefore: %+v\nafter:  %+v", rep, &back)
	}

	// Every figure of the text rendering is present in the JSON document.
	text := rep.String()
	for _, needle := range []string{
		p.Name,
		cfg.String(),
		res.Value,
		fmt.Sprint(rep.Cycles),
		fmt.Sprint(rep.Instrs),
		fmt.Sprint(rep.Stalls),
		fmt.Sprintf("%.2f%%", rep.TagPct),
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("text output missing %q:\n%s", needle, text)
		}
	}
	js := string(raw)
	for _, c := range rep.Categories {
		if !strings.Contains(js, fmt.Sprintf(`"cycles":%d`, c.Cycles)) {
			t.Errorf("JSON missing category cycle count %d", c.Cycles)
		}
		if !strings.Contains(text, fmt.Sprint(c.Cycles)) {
			t.Errorf("text missing category cycle count %d", c.Cycles)
		}
	}
}

// TestRunnerMetrics asserts the runner's registry records every uncached
// run and that cached replays do not double-count.
func TestRunnerMetrics(t *testing.T) {
	p, ok := programs.ByName("inter")
	if !ok {
		t.Fatal("program inter not found")
	}
	r := NewRunner()
	cfg := Baseline(false)
	res, err := r.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(p, cfg); err != nil { // cache hit
		t.Fatal(err)
	}
	s := r.Metrics.Snapshot()
	if s.Counters["runs_total"] != 1 {
		t.Errorf("runs_total = %d, want 1 (cached replay must not re-record)", s.Counters["runs_total"])
	}
	if s.Counters["cycles_total"] != res.Stats.Cycles {
		t.Errorf("cycles_total = %d, want %d", s.Counters["cycles_total"], res.Stats.Cycles)
	}
	key := obs.Labeled("cycles_total", "program", p.Name, "config", cfg.String())
	if s.Counters[key] != res.Stats.Cycles {
		t.Errorf("per-run counter %q = %d, want %d", key, s.Counters[key], res.Stats.Cycles)
	}
	if s.Histograms["run_cycles"].Count != 1 {
		t.Error("run_cycles histogram not observed")
	}
}
