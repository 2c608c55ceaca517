package rt_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/programs"
	"repro/internal/rt"
)

var updateInitMem = flag.Bool("update", false, "rewrite testdata/initial_mem.golden")

const initMemGolden = "testdata/initial_mem.golden"

// initMemCase is one (program, config) whose initial machine memory is
// pinned.
type initMemCase struct {
	name string // "<program> <config>", the golden file's key
	src  string
	opts rt.BuildOptions
}

// initMemCases crosses the benchmark program comp and one memtag torture
// program with every configuration of the difftest spectra. The torture
// program uses the oracle's smaller heap, so the cases cover two memory
// sizes per configuration.
func initMemCases() []initMemCase {
	comp := programs.MustByName("comp")
	torture := difftest.GenerateTortureKind(difftest.NewSeeded(1), 8, "uaf")
	var out []initMemCase
	for _, cfg := range append(difftest.Spectrum(), difftest.MemtagSpectrum()...) {
		opts := rt.BuildOptions{Scheme: cfg.Scheme, HW: cfg.HW, Checking: cfg.Checking}
		c := initMemCase{name: "comp " + cfg.String(), src: comp.Source, opts: opts}
		c.opts.HeapWords = comp.HeapWords
		out = append(out, c)
		c = initMemCase{name: "torture " + cfg.String(), src: torture, opts: opts}
		c.opts.HeapWords = 1 << 16
		out = append(out, c)
	}
	return out
}

// memHash digests the length and every word of a machine's memory.
func memHash(mem []uint32) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(mem)))
	for _, w := range mem {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// loadInitMemGolden reads the pinned hashes, keyed by case name.
func loadInitMemGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(initMemGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		i := strings.LastIndexByte(sc.Text(), ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		pinned[sc.Text()[:i]] = sc.Text()[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

func buildCase(t *testing.T, c initMemCase) *rt.Image {
	t.Helper()
	img, err := rt.Build(c.src, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return img
}

// TestInitialMemoryPinned pins the initial memory of a fresh machine, bit
// for bit, for every spectrum configuration: the image's initialized
// words, the zeroed heap and stack, and under memory tagging the shadow
// colors of the static granules. Run with -update to re-record.
func TestInitialMemoryPinned(t *testing.T) {
	var pinned map[string]string
	if !*updateInitMem {
		pinned = loadInitMemGolden(t)
	}
	var lines []string
	for _, c := range initMemCases() {
		got := memHash(buildCase(t, c).NewMachine().Mem)
		lines = append(lines, c.name+" "+got)
		if pinned == nil {
			continue
		}
		if want, ok := pinned[c.name]; !ok {
			t.Errorf("%s: no pinned hash", c.name)
		} else if got != want {
			t.Errorf("%s: initial memory hash %s, pinned %s", c.name, got, want)
		}
	}
	if *updateInitMem {
		if err := os.MkdirAll(filepath.Dir(initMemGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(initMemGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(pinned) != len(lines) {
		t.Errorf("golden has %d cases, the spectra give %d", len(pinned), len(lines))
	}
}

// TestMachineReuseClearsMemory scribbles over every word of a machine's
// memory buffer, releases it, and checks that the next machine starts from
// the pinned initial memory. The cases alternate memory sizes, so a
// released buffer may come back longer than the next machine needs. The
// pool may also drop a released buffer (it does at random under -race),
// so the check holds whether or not the buffer was actually reused.
func TestMachineReuseClearsMemory(t *testing.T) {
	pinned := loadInitMemGolden(t)
	byName := map[string]initMemCase{}
	for _, c := range initMemCases() {
		byName[c.name] = c
	}
	var cases []initMemCase
	var imgs []*rt.Image
	for _, name := range []string{"comp high5+memtaghw", "comp low3+check", "torture high5+memtag", "comp high5"} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("no case %q", name)
		}
		cases = append(cases, c)
		imgs = append(imgs, buildCase(t, c))
	}
	for round := 0; round < 3; round++ {
		for i, c := range cases {
			m := imgs[i].NewMachine()
			if got := memHash(m.Mem); got != pinned[c.name] {
				t.Fatalf("round %d, %s: initial memory hash %s, pinned %s", round, c.name, got, pinned[c.name])
			}
			all := m.Mem[:cap(m.Mem)]
			for j := range all {
				all[j] = 0xdeadbeef ^ uint32(j)
			}
			m.Release()
			if m.Mem != nil {
				t.Fatalf("%s: Mem not nil after Release", c.name)
			}
		}
	}
}
