package schemesearch

import (
	"fmt"

	"repro/internal/tags"
)

// Family is one (placement, width) corner of the design space.
type Family struct {
	Placement tags.Placement `json:"placement"`
	Bits      int            `json:"bits"`
}

func (f Family) String() string { return fmt.Sprintf("%s%d", f.Placement, f.Bits) }

// AllFamilies lists every family the runtime supports: low tags of 2 or 3
// bits, high tags of 4 to 6 bits (26 address bits must remain below the
// field — see rt.Build's memory plan). Low families come first so a
// budget-capped search always reaches the paper's low-tag region.
var AllFamilies = []Family{
	{tags.PlaceLow, 2}, {tags.PlaceLow, 3},
	{tags.PlaceHigh, 4}, {tags.PlaceHigh, 5}, {tags.PlaceHigh, 6},
}

// EnumOptions configures one enumeration.
type EnumOptions struct {
	// Properties to propagate during the search. Only emitted specs that
	// the independent checker (CheckSpec) also accepts are correct; the
	// enumerator's contract is that the two always agree.
	Properties []Property
	// Budget caps the number of property-valid specs emitted. It is
	// divided across families (low first) so no corner starves another.
	Budget int
	// Families to enumerate; nil means AllFamilies.
	Families []Family
}

// Enumeration is the outcome: the emitted specs in deterministic DFS
// order plus the accounting the search report and metrics expose.
type Enumeration struct {
	Specs []tags.Spec
	// Visited counts complete assignments reached (= emitted specs, when
	// propagation is exact).
	Visited int64
	// Pruned counts subtrees cut per reason: tag-collision, pair-align,
	// pair-shared, tag-shared, int-adjacent, sum-alias, mask-infeasible,
	// placement, budget.
	Pruned map[string]int64
}

// Enumerate walks the design space depth-first, assigning tag values type
// by type (pair, symbol, vector, string, float, then code and header on
// high placements; low placements force code and header) and pruning with
// bitwise constraint propagation as each value lands.
func Enumerate(o EnumOptions) (*Enumeration, error) {
	if o.Budget <= 0 {
		return nil, fmt.Errorf("enumeration budget must be positive, got %d", o.Budget)
	}
	fams := o.Families
	if len(fams) == 0 {
		fams = AllFamilies
	}
	props := map[string]bool{}
	for _, p := range o.Properties {
		props[p.Name] = true
	}
	res := &Enumeration{Pruned: map[string]int64{}}
	for i, f := range fams {
		share := (o.Budget - len(res.Specs)) / (len(fams) - i)
		if share < 1 {
			share = 1
		}
		quota := len(res.Specs) + share
		if quota > o.Budget {
			quota = o.Budget
		}
		e := &famEnum{props: props, res: res, quota: quota, fam: f}
		e.run()
	}
	return res, nil
}

// famEnum is the DFS state for one family.
type famEnum struct {
	props map[string]bool
	res   *Enumeration
	quota int // global spec count this family may fill up to
	fam   Family

	top uint8
	cur tags.Spec
	// maskCands is the surviving (mask, value) candidate set for the
	// listmask property, filtered as tags are assigned; nil when the
	// property is off or not yet initializable.
	maskCands [][2]uint8
}

func (e *famEnum) prune(reason string) { e.res.Pruned[reason]++ }

func (e *famEnum) run() {
	e.top = uint8(1<<e.fam.Bits - 1)
	if e.props["sumclosed"] && e.fam.Placement == tags.PlaceLow {
		// Low placements are never sum-closed: the data bits sit above
		// the tag, so a tag-field carry corrupts the payload instead of
		// flagging a type error.
		e.prune("placement")
		return
	}
	e.cur = tags.Spec{Placement: e.fam.Placement, Bits: e.fam.Bits}
	if e.fam.Placement == tags.PlaceLow {
		e.cur.Tags[tags.THeader] = e.top
	}
	if !e.assign(0) {
		e.prune("budget")
	}
}

// order returns the assignment order for the family: the heap types, then
// code and header for high placements (low placements force both).
func (e *famEnum) order() []tags.Type {
	ts := append([]tags.Type{}, heapTypes...)
	if e.fam.Placement == tags.PlaceHigh {
		ts = append(ts, tags.TCode, tags.THeader)
	}
	return ts
}

// assign fills slot i of the assignment order, propagating constraints.
// It returns false when the budget quota stopped the walk early.
func (e *famEnum) assign(i int) bool {
	order := e.order()
	if i == len(order) {
		e.res.Visited++
		e.res.Specs = append(e.res.Specs, e.cur)
		return len(e.res.Specs) < e.quota
	}
	t := order[i]
	for v := uint8(1); v < e.top; v++ {
		if !e.admit(t, v, order[:i]) {
			continue
		}
		e.cur.Tags[t] = v
		savedCands := e.maskCands
		if !e.propagateMasks(t, v) {
			e.prune("mask-infeasible")
			e.cur.Tags[t] = 0
			e.maskCands = savedCands
			continue
		}
		ok := e.assign(i + 1)
		e.cur.Tags[t] = 0
		e.maskCands = savedCands
		if !ok {
			return false
		}
	}
	return true
}

// admit applies the per-value structural and property constraints for
// assigning v to t, counting each rejection under its prune reason.
func (e *famEnum) admit(t tags.Type, v uint8, assigned []tags.Type) bool {
	if e.fam.Placement == tags.PlaceLow {
		if v&3 == 0 {
			// Zero stored bits: pointers would look like fixnums. Not a
			// property choice but a placement mechanic, so no counter —
			// the value is simply outside the domain.
			return false
		}
		if t == tags.TPair && v&4 != 0 {
			// Pairs have no header and the cons paths never pad: a pair
			// tag cannot borrow the alignment bit (Spec.Validate).
			e.prune("pair-align")
			return false
		}
		if t != tags.TPair && v == e.cur.Tags[tags.TPair] {
			e.prune("pair-shared")
			return false
		}
		if e.props["disjoint"] {
			for _, u := range assigned {
				if e.cur.Tags[u] == v {
					e.prune("tag-shared")
					return false
				}
			}
		}
		return true
	}

	// High placement: distinct tags are structural.
	for _, u := range assigned {
		if e.cur.Tags[u] == v {
			e.prune("tag-collision")
			return false
		}
	}
	if e.props["sumclosed"] {
		if v < 2 || v > e.top-2 {
			// An int ± non-int sum reaches tags v-1 .. v+1, which must
			// avoid the integer tags 0 and all-ones.
			e.prune("int-adjacent")
			return false
		}
		aliases := func(uv uint8) bool {
			for c := uint8(0); c <= 1; c++ {
				if sum := (v + uv + c) & e.top; sum == 0 || sum == e.top {
					return true
				}
			}
			return false
		}
		if aliases(v) {
			e.prune("sum-alias")
			return false
		}
		for _, u := range assigned {
			if aliases(e.cur.Tags[u]) {
				e.prune("sum-alias")
				return false
			}
		}
	}
	return true
}

// propagateMasks maintains the mask-property candidate sets after t was
// assigned. It returns false when a requested mask property became
// infeasible for the whole subtree.
func (e *famEnum) propagateMasks(t tags.Type, v uint8) bool {
	wantPairNil := e.props["pairnilmask"]
	wantList := e.props["listmask"]
	if !wantPairNil && !wantList {
		return true
	}
	if t == tags.TSymbol {
		if wantPairNil {
			if _, _, ok := maskFeasible(e.fam.Bits, []uint8{e.cur.Tags[tags.TPair], v}, intTagVals(e.cur)); !ok {
				return false
			}
		}
		if wantList {
			// Seed the candidate set: every (m, val) matching pair and
			// nil while excluding the patterns already fixed — fixnums,
			// and on low placements the forced code and header tags.
			exclude := append([]uint8{}, intTagVals(e.cur)...)
			if e.fam.Placement == tags.PlaceLow {
				exclude = append(exclude, codeTagVals(e.cur)...)
				exclude = append(exclude, e.cur.Tags[tags.THeader])
			}
			pair := e.cur.Tags[tags.TPair]
			e.maskCands = nil
			for m := 0; m <= int(e.top); m++ {
				mv := pair & uint8(m)
				if v&uint8(m) != mv {
					continue
				}
				ok := true
				for _, x := range exclude {
					if x&uint8(m) == mv {
						ok = false
						break
					}
				}
				if ok {
					e.maskCands = append(e.maskCands, [2]uint8{uint8(m), mv})
				}
			}
			if len(e.maskCands) == 0 {
				return false
			}
		}
		return true
	}
	if wantList && t != tags.TPair && e.maskCands != nil {
		// Every later tag must fail the list test: drop candidates v
		// matches.
		var kept [][2]uint8
		for _, c := range e.maskCands {
			if v&c[0] != c[1] {
				kept = append(kept, c)
			}
		}
		e.maskCands = kept
		return len(kept) > 0
	}
	return true
}
