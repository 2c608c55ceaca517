package tags

import (
	"strings"
	"testing"
)

// TestSpecNameRoundTrip pins the canonical spelling of every builtin and
// that ParseSpecName inverts Name exactly.
func TestSpecNameRoundTrip(t *testing.T) {
	want := map[Kind]string{
		High5: "xh5:1.2.3.4.5.6.7",
		High6: "xh6:8.9.10.11.12.13.24",
		Low3:  "xl3:1.2.5.6.3.0.7",
		Low2:  "xl2:1.2.2.2.2.0.3",
	}
	for k, name := range want {
		sp, ok := BuiltinSpec(k)
		if !ok {
			t.Fatalf("no builtin spec for %v", k)
		}
		if got := sp.Name(); got != name {
			t.Errorf("%v spec name = %q, want %q", k, got, name)
		}
		parsed, err := ParseSpecName(name)
		if err != nil {
			t.Fatalf("ParseSpecName(%q): %v", name, err)
		}
		if parsed != sp {
			t.Errorf("round trip of %q drifted: %+v vs %+v", name, parsed, sp)
		}
	}
}

// TestSpecValidate is the structural-rule table: each rejected spec
// violates exactly one placement mechanic.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		errHas string
	}{
		{"xl3:1.2.5.6.3.0.7", ""},
		{"xh4:1.2.3.4.5.6.7", ""},
		{"xh6:8.9.10.11.12.13.24", ""},
		{"xl2:1.2.2.2.2.0.3", ""},
		{"xh3:1.2.3.4.5.6.7", "widths 4..6"},
		{"xh7:1.2.3.4.5.6.7", "widths 4..6"},
		{"xl4:1.2.5.6.3.0.15", "widths 2..3"},
		{"xh5:1.2.3.4.5.6.31", "integer tags"},    // header collides with negInt
		{"xh5:1.1.3.4.5.6.7", "share tag"},        // high needs distinct tags
		{"xl3:1.2.4.6.3.0.7", "zero stored bits"}, // tag 4 stores 00
		{"xl3:1.1.5.6.3.0.7", "pair"},             // symbol shares pair's tag
		{"xl3:1.2.5.6.3.1.7", "integer tag 0"},    // code must look like a fixnum
		{"xl3:1.2.5.6.3.0.5", "all-ones"},         // header must be 7
		{"xl3:1.2.5.6.7.0.7", "collides"},         // float on the header pattern
		{"xl3:5.1.2.3.6.0.7", "alignment bit"},    // pair cannot use the odd-word trick
		{"xl3:6.1.2.3.5.0.7", "alignment bit"},    // (cons never pads to an odd word)
	}
	for _, c := range cases {
		_, err := ParseSpecName(c.name)
		if c.errHas == "" {
			if err != nil {
				t.Errorf("%s should validate: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s should be rejected", c.name)
		} else if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errHas)
		}
	}
}

// TestRegisterIdempotent pins that registration is keyed by canonical
// name: the same spec always resolves to the same Kind, and the Kind
// resolves back through String and New.
func TestRegisterIdempotent(t *testing.T) {
	sp, err := ParseSpecName("xh5:2.3.4.5.6.7.8")
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RegisterName("xh5:2.3.4.5.6.7.8")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("re-registration changed the kind: %v vs %v", k1, k2)
	}
	if k1 < kindDynBase {
		t.Fatalf("dynamic kind %v below kindDynBase", k1)
	}
	if k1.String() != "xh5:2.3.4.5.6.7.8" {
		t.Errorf("Kind.String() = %q, want the canonical name", k1.String())
	}
	s := New(k1)
	if s.Kind() != k1 || s.TagBits() != 5 || s.Tag(TPair) != 2 {
		t.Errorf("materialized scheme wrong: kind=%v bits=%d pair=%d", s.Kind(), s.TagBits(), s.Tag(TPair))
	}
	got, ok := SpecOf(k1)
	if !ok || got != sp {
		t.Errorf("SpecOf(%v) = %+v, %t", k1, got, ok)
	}
	names := RegisteredNames()
	found := false
	for _, n := range names {
		if n == "xh5:2.3.4.5.6.7.8" {
			found = true
		}
	}
	if !found {
		t.Errorf("RegisteredNames() = %v misses the spec", names)
	}
}

// TestPreviewCloneMatchesBuiltin pins that a builtin respelled through
// the table-driven constructor is behaviorally identical to the
// hand-built scheme on the host-side encoding surface.
func TestPreviewCloneMatchesBuiltin(t *testing.T) {
	for _, k := range []Kind{High5, High6, Low3, Low2} {
		sp, _ := BuiltinSpec(k)
		clone, err := Preview(sp)
		if err != nil {
			t.Fatalf("%v clone: %v", k, err)
		}
		orig := New(k)
		if clone.TagBits() != orig.TagBits() || clone.NeedsMask() != orig.NeedsMask() {
			t.Fatalf("%v clone geometry differs", k)
		}
		for tp := TInt; tp < NumTypes; tp++ {
			if clone.Tag(tp) != orig.Tag(tp) {
				t.Errorf("%v clone tag(%v) = %d, want %d", k, tp, clone.Tag(tp), orig.Tag(tp))
			}
			if clone.HeaderCheck(tp) != orig.HeaderCheck(tp) {
				t.Errorf("%v clone HeaderCheck(%v) differs", k, tp)
			}
			sz, off := clone.Align(tp)
			osz, ooff := orig.Align(tp)
			if sz != osz || off != ooff {
				t.Errorf("%v clone Align(%v) = (%d,%d), want (%d,%d)", k, tp, sz, off, osz, ooff)
			}
		}
		for _, v := range []int64{0, 1, -1, 1000, -1000} {
			ci, cok := clone.MakeInt(v)
			oi, ook := orig.MakeInt(v)
			if ci != oi || cok != ook {
				t.Errorf("%v clone MakeInt(%d) = (%#x,%t), want (%#x,%t)", k, v, ci, cok, oi, ook)
			}
		}
	}
}

// TestSumClosed pins the computed §4.2 property on the builtins and on a
// searched shape that earns it.
func TestSumClosed(t *testing.T) {
	cases := []struct {
		scheme Scheme
		want   bool
	}{
		{New(High6), true},
		{New(High5), false}, // pair tag 1 is int-adjacent
		{New(Low3), false},  // low placement never qualifies
		{New(Low2), false},
	}
	for _, c := range cases {
		if got := SumClosed(c.scheme); got != c.want {
			t.Errorf("SumClosed(%v) = %t, want %t", c.scheme.Kind(), got, c.want)
		}
	}
	sp, err := ParseSpecName("xh5:8.9.10.11.12.13.14")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Preview(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !SumClosed(s) {
		t.Error("xh5:8.9.10.11.12.13.14 should be sum-closed (tags 8..14, sums 16..29 avoid 0 and 31)")
	}
}

// TestHeapTestPlan pins the plan name for each emission shape.
func TestHeapTestPlan(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"xh5:1.2.3.4.5.6.7", "range"},
		{"xh6:8.9.10.11.12.13.24", "range"},
		{"xh5:1.2.3.4.6.5.7", "chain:pair,symbol,vector,string,float"}, // code tag 5 splits the span
		{"xl3:1.2.5.6.3.0.7", "nonzero"},                               // float stores 11
		{"xl2:1.2.2.2.2.0.3", "nonzero-x3"},                            // 11 only on headers
		{"xl3:1.2.5.6.2.0.7", "nonzero-x3"},                            // no heap type stores 11
	}
	for _, c := range cases {
		sp, err := ParseSpecName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Preview(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got := HeapTestPlan(s); got != c.want {
			t.Errorf("HeapTestPlan(%s) = %q, want %q", c.name, got, c.want)
		}
	}
}
