// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload against the real layers — the tagsimd handler behind a
// loopback listener, core.Runner, rt.Build, Image.NewMachine and
// Machine.RunEngine — checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer split, taken on alternate passes so that the same run also
// states the tracing overhead. The command exits 1 when any correctness gate
// fails and 2 on bad arguments. README.md in this directory explains the
// workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
)

// loadConcurrency is the number of closed-loop clients. It is the
// benchmark host's nproc, fixed rather than read from the host so that
// figures from different hosts describe the same offered load.
const loadConcurrency = 2

// minSetups is how many times a run sets its system up, at least, so
// that setup_s is a median.
const minSetups = 9

// coldPassKeys is how many keys one service-cold pass sends to its fresh
// server. Passes this short keep the server's caches, and so the heap the
// next pass must map again, small, and give a run many passes to take the
// median of.
const coldPassKeys = 40

// heldOutSeed is the seed kept out of tuning: a change that claims a gain
// must also show it on this seed.
const heldOutSeed = 7919

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory the span file is written to (trace runs)
	size     size
}

// size is the amount of work a pass does. The self-test shrinks it.
type size struct {
	shortPrograms []string // the service workloads' programs
	warmRequests  int      // requests per service-warm pass
	refSample     int      // service-cold keys re-run on the reference engine
}

var fullSize = size{
	shortPrograms: []string{"comp", "trav", "rat", "brow", "opt", "inter"},
	warmRequests:  20000,
	refSample:     12,
}

var workloads = map[string]func(*bench) *summary{
	"service-cold": (*bench).serviceCold,
	"service-warm": (*bench).serviceWarm,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSize))
}

// run parses args, runs the workload and prints its result; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer, sz size) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "service-cold or service-warm")
	fs.Int64Var(&o.seed, "seed", heldOutSeed, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 50, "measured time; passes repeat until it is reached")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build/trace", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || fs.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload service-cold|service-warm and -trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	o.size = sz
	b := newBench(o, stderr)
	sum := w(b)
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   sum.endToEnd(b),
	}
	if o.trace {
		fmt.Fprintln(stderr, "perfbench:", b.layers.splitLine())
		res.Metrics = sum.layerMetrics(&b.layers)
		if err := b.tr.write(o.out, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding the result:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is the state one run shares across its passes: the seeded input
// generator, the correctness tally, the span recorder and the layer split.
type bench struct {
	opt       options
	rng       *rand.Rand
	attempted int
	failed    int
	stderr    io.Writer
	tr        *tracer
	layers    layerSplit // the traced passes' split
}

func newBench(o options, stderr io.Writer) *bench {
	return &bench{opt: o, rng: rand.New(rand.NewSource(o.seed)), stderr: stderr,
		tr: newTracer(), layers: layerSplit{v: map[string]float64{}}}
}

// fail records one failed operation; the first few are printed.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(b.stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// printResult writes one "name value unit" line per metric, then the JSON
// result as the last line.
func printResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res) // fails only on a NaN or infinite value
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
