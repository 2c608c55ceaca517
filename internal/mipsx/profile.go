package mipsx

import (
	"fmt"
	"sort"
	"strings"
)

// Profile attributes executed cycles to code regions delimited by named
// labels — with the compiler's "fn:" naming convention, to functions.
type Profile struct {
	names    []string
	starts   []int
	regionOf []uint16
	Cycles   []uint64
}

// NewProfile builds a profile map over prog from the labels accepted by
// keep (nil keeps every named label).
func NewProfile(prog *Program, keep func(name string) bool) *Profile {
	type region struct {
		start int
		name  string
	}
	var regions []region
	for name, idx := range prog.Labels {
		if name == "" {
			continue
		}
		if keep != nil && !keep(name) {
			continue
		}
		regions = append(regions, region{start: idx, name: name})
	}
	// Sort by (start, name) so the region map is deterministic: when
	// several labels share an address, the lexicographically smallest name
	// wins regardless of map iteration order.
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].start != regions[j].start {
			return regions[i].start < regions[j].start
		}
		return regions[i].name < regions[j].name
	})
	p := &Profile{regionOf: make([]uint16, len(prog.Instrs))}
	p.names = append(p.names, "(prelude)")
	p.starts = append(p.starts, 0)
	for _, r := range regions {
		if r.start == p.starts[len(p.starts)-1] {
			// Several labels at one address: keep the first name.
			continue
		}
		p.names = append(p.names, r.name)
		p.starts = append(p.starts, r.start)
	}
	p.Cycles = make([]uint64, len(p.names))
	cur := 0
	for i := range p.regionOf {
		for cur+1 < len(p.starts) && p.starts[cur+1] <= i {
			cur++
		}
		p.regionOf[i] = uint16(cur)
	}
	return p
}

func (p *Profile) add(pc int, cycles uint64) {
	if pc >= 0 && pc < len(p.regionOf) {
		p.Cycles[p.regionOf[pc]] += cycles
	}
}

// NumRegions returns the number of regions, including the "(prelude)"
// bucket that covers code before the first kept label.
func (p *Profile) NumRegions() int { return len(p.names) }

// RegionName returns the name of region i.
func (p *Profile) RegionName(i int) string { return p.names[i] }

// RegionOf returns the region index covering instruction index pc, or -1
// when pc is outside the program.
func (p *Profile) RegionOf(pc int) int {
	if pc < 0 || pc >= len(p.regionOf) {
		return -1
	}
	return int(p.regionOf[pc])
}

// IsFunctionLabel reports whether a label names a function-level region
// under the compiler's conventions: compiled functions ("fn:"), runtime
// glue ("sys:"), and the image entry point. It is the keep predicate the
// profiler and the call tracer share.
func IsFunctionLabel(name string) bool {
	return strings.HasPrefix(name, "fn:") || strings.HasPrefix(name, "sys:") ||
		name == "__start"
}

// Entry is one profile row.
type Entry struct {
	Name   string
	Cycles uint64
}

// Top returns the n hottest regions.
func (p *Profile) Top(n int) []Entry {
	out := make([]Entry, 0, len(p.names))
	for i, name := range p.names {
		if p.Cycles[i] > 0 {
			out = append(out, Entry{Name: name, Cycles: p.Cycles[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Format renders the top-n table against a cycle total.
func (p *Profile) Format(n int, total uint64) string {
	var sb strings.Builder
	for _, e := range p.Top(n) {
		fmt.Fprintf(&sb, "  %-32s %12d  %6.2f%%\n", e.Name, e.Cycles, Pct(e.Cycles, total))
	}
	return sb.String()
}

// RunProfiled is Run with per-region cycle attribution into prof.
func (m *Machine) RunProfiled(prof *Profile) error {
	m.Ran = EngineReference
	for !m.halted {
		pc := m.PC
		before := m.Stats.Cycles
		if err := m.Step(); err != nil {
			return err
		}
		prof.add(pc, m.Stats.Cycles-before)
		if m.MaxCycles != 0 && m.Stats.Cycles > m.MaxCycles {
			return m.fault("cycle limit %d exceeded", m.MaxCycles)
		}
	}
	if m.Stats.ErrorCode != 0 {
		return &RuntimeError{Code: m.Stats.ErrorCode, Item: m.Stats.ErrorItem}
	}
	return nil
}
