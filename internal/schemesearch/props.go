// Package schemesearch explores the tag-assignment design space the paper
// samples by hand: it enumerates candidate tag schemes under declared
// check-elision properties, verifies each candidate with an independent
// property checker, materializes survivors as real tags.Schemes through
// the table-driven constructor, and ranks them by simulated cycles across
// hardware configurations.
//
// The pipeline is enumerate → check → materialize → sweep → rank. The
// enumerator prunes with bitwise constraint propagation, so it only emits
// specs it believes satisfy the requested properties; the checker then
// re-verifies every emitted spec from scratch (brute force over the full
// mask space, behavioral tests on a materialized scheme). The pair forms
// the subsystem's exhaustiveness argument: the propagation rules and the
// checker are written independently, and the tests seed known-invalid
// specs to prove the checker rejects what the enumerator must never emit.
package schemesearch

import (
	"fmt"
	"strings"

	"repro/internal/tags"
)

// Property is one declared, machine-checkable tag-scheme property. Check
// returns nil when sp satisfies the property and a counterexample-bearing
// error when it does not.
type Property struct {
	Name  string
	Desc  string
	Check func(sp tags.Spec) error
}

// heapTypes are the pointer types whose tags the search assigns.
var heapTypes = []tags.Type{tags.TPair, tags.TSymbol, tags.TVector, tags.TString, tags.TFloat}

// intTagVals returns every value the tag field can present for a fixnum
// item. High placements tag positive integers 0 and negative integers
// all-ones. Low placements store 00, but a 3-bit field borrows the
// address's bit 2, which for an integer tracks the value — so fixnums
// present both 000 and 100.
func intTagVals(sp tags.Spec) []uint8 {
	top := uint8(1<<sp.Bits - 1)
	if sp.Placement == tags.PlaceHigh {
		return []uint8{0, top}
	}
	if sp.Bits == 3 {
		return []uint8{0, 4}
	}
	return []uint8{0}
}

// codeTagVals is the same enumeration for compiled-code items: a single
// tag on high placements, fixnum-like patterns on low placements.
func codeTagVals(sp tags.Spec) []uint8 {
	if sp.Placement == tags.PlaceHigh {
		return []uint8{sp.Tags[tags.TCode]}
	}
	return intTagVals(sp)
}

// maskFeasible reports whether some (mask, value) pair matches every tag
// in match while excluding every tag in exclude, searching the full
// 2^bits mask space. It returns the first feasible pair in (mask, value)
// order, so callers can report a witness.
func maskFeasible(bits int, match, exclude []uint8) (m, v uint8, ok bool) {
	top := uint8(1<<bits - 1)
	for m := uint8(0); ; m++ {
		v := match[0] & m
		good := true
		for _, t := range match {
			if t&m != v {
				good = false
				break
			}
		}
		if good {
			for _, t := range exclude {
				if t&m == v {
					good = false
					break
				}
			}
		}
		if good {
			return m, v, true
		}
		if m == top {
			return 0, 0, false
		}
	}
}

// Properties returns every declared property, in canonical order.
func Properties() []Property {
	return []Property{
		{
			Name: "disjoint",
			Desc: "every heap type has its own tag; no type test needs a header read",
			Check: func(sp tags.Spec) error {
				for i, t := range heapTypes {
					for _, u := range heapTypes[i+1:] {
						if sp.Tags[t] == sp.Tags[u] {
							return fmt.Errorf("%s and %s share tag %d", t, u, sp.Tags[t])
						}
					}
				}
				return nil
			},
		},
		{
			Name: "fixnumarith",
			Desc: "fixnum add/sub operate on items directly, no untag or retag",
			Check: func(sp tags.Spec) error {
				s, err := tags.Preview(sp)
				if err != nil {
					return err
				}
				if s.Tag(tags.TInt) != 0 {
					return fmt.Errorf("positive integer tag is %d, not 0", s.Tag(tags.TInt))
				}
				// Behavioral verification on the materialized scheme: the
				// machine add/sub of two integer items must equal the item
				// of the mathematical result whenever it fits.
				fb := s.FixnumBits()
				max := int64(1)<<(fb-1) - 1
				samples := []int64{0, 1, -1, 2, -7, 100, -100, max / 2, -max / 2, max, -max - 1}
				for _, a := range samples {
					for _, b := range samples {
						ia, ok1 := s.MakeInt(a)
						ib, ok2 := s.MakeInt(b)
						if !ok1 || !ok2 {
							continue
						}
						if sum := a + b; sum >= -max-1 && sum <= max {
							want, _ := s.MakeInt(sum)
							if ia+ib != want {
								return fmt.Errorf("item(%d)+item(%d) = %#x, want item(%d) = %#x", a, b, ia+ib, sum, want)
							}
						}
						if diff := a - b; diff >= -max-1 && diff <= max {
							want, _ := s.MakeInt(diff)
							if ia-ib != want {
								return fmt.Errorf("item(%d)-item(%d) = %#x, want item(%d) = %#x", a, b, ia-ib, diff, want)
							}
						}
					}
				}
				return nil
			},
		},
		{
			Name: "pairnilmask",
			Desc: "pair and nil (a symbol) share one check mask no fixnum can match",
			Check: func(sp tags.Spec) error {
				match := []uint8{sp.Tags[tags.TPair], sp.Tags[tags.TSymbol]}
				if _, _, ok := maskFeasible(sp.Bits, match, intTagVals(sp)); !ok {
					return fmt.Errorf("no (mask,value) matches pair tag %d and nil tag %d while excluding the fixnum patterns %v",
						match[0], match[1], intTagVals(sp))
				}
				return nil
			},
		},
		{
			Name: "listmask",
			Desc: "the list check (pair-or-nil) is a single mask test excluding every other type",
			Check: func(sp tags.Spec) error {
				match := []uint8{sp.Tags[tags.TPair], sp.Tags[tags.TSymbol]}
				var exclude []uint8
				exclude = append(exclude, intTagVals(sp)...)
				exclude = append(exclude, codeTagVals(sp)...)
				exclude = append(exclude, sp.Tags[tags.THeader])
				for _, t := range []tags.Type{tags.TVector, tags.TString, tags.TFloat} {
					exclude = append(exclude, sp.Tags[t])
				}
				if _, _, ok := maskFeasible(sp.Bits, match, exclude); !ok {
					return fmt.Errorf("no single (mask,value) isolates {pair,nil} tags %v from every other pattern %v",
						match, exclude)
				}
				return nil
			},
		},
		{
			Name: "sumclosed",
			Desc: "generic add needs one integer test on the result (§4.2)",
			Check: func(sp tags.Spec) error {
				s, err := tags.Preview(sp)
				if err != nil {
					return err
				}
				if !tags.SumClosed(s) {
					if sp.Placement == tags.PlaceLow {
						return fmt.Errorf("low placements are never sum-closed: a carry out of the tag field corrupts the payload")
					}
					return fmt.Errorf("some tag sum (with carry) aliases an integer tag")
				}
				return nil
			},
		},
	}
}

// DefaultPropertyNames is the property set a search uses when the request
// names none: the structural pair that every hand-built scheme satisfies.
var DefaultPropertyNames = []string{"disjoint", "fixnumarith"}

// ParseProperties resolves names to properties, erroring with the full
// list of valid names on an unknown one.
func ParseProperties(names []string) ([]Property, error) {
	all := Properties()
	byName := make(map[string]Property, len(all))
	valid := make([]string, len(all))
	for i, p := range all {
		byName[p.Name] = p
		valid[i] = p.Name
	}
	var props []Property
	for _, n := range names {
		n = strings.TrimSpace(n)
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown property %q (want one of %s)", n, strings.Join(valid, ", "))
		}
		props = append(props, p)
	}
	return props, nil
}

// CheckSpec verifies sp against every requested property plus the
// structural Validate, returning the first violation. This is the
// independent verifier the enumerator's output contract is defined by.
func CheckSpec(sp tags.Spec, props []Property) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	for _, p := range props {
		if err := p.Check(sp); err != nil {
			return fmt.Errorf("property %s: %w", p.Name, err)
		}
	}
	return nil
}
