package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/tags"
)

// tinySize keeps the service workloads to one program and a few hundred
// requests.
var tinySize = size{shortPrograms: []string{"comp"}, warmRequests: 200, refSample: 2}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny size and returns its exit code,
// its parsed last line and its whole standard output.
func runTiny(t *testing.T, workload string, trace int) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-workload", workload, "-seed", "3", "-seconds", "0", "-trace", fmt.Sprint(trace),
		"-out", t.TempDir(),
	}, &stdout, &stderr, tinySize)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, &stdout, &stderr)
	}
	return code, res, stdout.String()
}

// TestEveryMetricPrinted runs each workload in both modes and checks that
// the output names exactly the metrics BENCHMARK.json declares, each with
// its unit, both as a text line and in the result.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{s.EndToEnd, s.PerLayer} {
			code, res, out := runTiny(t, w.Name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, result %+v", w.Name, trace, code, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s is %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if line := textLines(out)[m.Name]; line != m.Unit {
					t.Errorf("%s trace=%d: text line for %s has unit %q, want %s", w.Name, trace, m.Name, line, m.Unit)
				}
			}
		}
	}
}

// textLines maps each "name value unit" line before the result to its unit.
func textLines(out string) map[string]string {
	units := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			units[f[0]] = f[2]
		}
	}
	return units
}

// TestWrongValueFails checks the value gates: a reply whose value is not
// the program's Expected, and a service answer whose cycles disagree with
// the reference engine, each count as a failure.
func TestWrongValueFails(t *testing.T) {
	var stderr bytes.Buffer
	b := newBench(options{size: tinySize}, &stderr)
	keys, err := shortKeys([]string{"comp"}, []core.Config{core.Baseline(true)})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := b.startService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	var body bytes.Buffer
	status, err := svc.post(keys[0].body, 1, &body)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := checkResponse(keys[0], status, body.Bytes())
	if err != nil {
		t.Fatalf("the right value failed: %v", err)
	}

	wrong := *keys[0].p
	wrong.Expected = "(42 . 3)"
	if _, err := checkResponse(key{p: &wrong, cfg: keys[0].cfg}, status, body.Bytes()); err == nil {
		t.Error("a reply with the wrong value passed")
	}
	if _, err := checkResponse(keys[0], 422, body.Bytes()); err == nil {
		t.Error("a non-200 reply passed")
	}

	b.referenceCheck(keys, []report{rep})
	if b.failed != 0 {
		t.Fatalf("the reference engine disagreed with the right answer: %s", &stderr)
	}
	rep.Cycles++
	b.referenceCheck(keys, []report{rep})
	if b.failed != 1 || b.attempted != 2 {
		t.Errorf("a wrong cycle count: %d failed of %d", b.failed, b.attempted)
	}
}

// TestRoundRepeat checks the cold workload's repeat gate: a round whose
// simulated cycles differ from the first round's counts as a failure.
func TestRoundRepeat(t *testing.T) {
	keys, err := shortKeys([]string{"comp"}, difftest.Spectrum())
	if err != nil {
		t.Fatal(err)
	}
	first := make([]report, len(keys))
	for i := range first {
		first[i].Cycles = uint64(100000 + i)
	}
	var stderr bytes.Buffer
	b := newBench(options{size: tinySize}, &stderr)
	b.checkRepeat(2, keys, first, append([]report(nil), first...))
	if b.failed != 0 {
		t.Fatalf("an identical round failed: %s", &stderr)
	}
	again := append([]report(nil), first...)
	again[len(again)-1].Cycles++
	b.checkRepeat(3, keys, first, again)
	if b.failed != 1 {
		t.Errorf("a round one cycle off: %d failed", b.failed)
	}
}

// TestTable2Error pins the accuracy figure's arithmetic: replies that
// reproduce the paper's checking column exactly are 0 pp from it, and one
// row off by 0.7 pp moves the mean of the seven rows by 0.1.
func TestTable2Error(t *testing.T) {
	cfgs := []core.Config{core.Baseline(true)}
	for _, row := range core.Table2Rows[:len(paperOn)] {
		cfgs = append(cfgs, core.Config{Scheme: tags.High5, HW: row.HW, Checking: true})
	}
	keys, err := shortKeys([]string{"comp"}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	reps := []report{{Cycles: 100000}}
	for _, pct := range paperOn {
		reps = append(reps, report{Cycles: uint64(100000 - 1000*pct)})
	}
	if e := serviceTable2Error(keys, reps); e != 0 {
		t.Errorf("the paper's own cells: %g pp", e)
	}
	reps[1].Cycles -= 700
	if e := serviceTable2Error(keys, reps); e < 0.0999 || e > 0.1001 {
		t.Errorf("one row 0.7 pp off: %g pp, want 0.1", e)
	}
}
