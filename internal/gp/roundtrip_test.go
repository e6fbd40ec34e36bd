package gp

import (
	"testing"

	"carbon/internal/rng"
)

// TestEncodeDecodeProperty is the codec contract required by the
// checkpoint subsystem: Parse(s, t.String(s)) == t for random trees — fresh
// ramped trees and trees churned through every breeding operator, over
// sets with and without ephemeral constants.
func TestEncodeDecodeProperty(t *testing.T) {
	sets := map[string]*Set{
		"tableI": {Ops: TableIOps(), Terms: []string{"c", "q", "b", "d", "xbar"}},
		"erc": {Ops: append(TableIOps(), Neg, Min, Max),
			Terms: []string{"c", "q"}, ConstProb: 0.3, ConstMin: -1e3, ConstMax: 1e3},
		"tinyConsts": {Ops: TableIOps(), Terms: []string{"v"},
			ConstProb: 0.5, ConstMin: -1e-9, ConstMax: 1e-9},
	}
	for name, set := range sets {
		t.Run(name, func(t *testing.T) {
			if err := set.Validate(); err != nil {
				t.Fatal(err)
			}
			r := rng.New(0xC0DEC)
			lim := DefaultLimits()
			var prev Tree
			for i := 0; i < 400; i++ {
				tr := set.Ramped(r, 0, 5)
				switch i % 4 {
				case 1:
					tr = UniformMutate(r, set, tr, 3, lim)
				case 2:
					tr = PointMutate(r, set, tr)
				case 3:
					if prev.Size() > 0 {
						tr, _ = OnePointCrossover(r, set, tr, prev, lim)
					}
				}
				prev = tr
				if err := tr.Check(set); err != nil {
					t.Fatalf("tree %d invalid before encoding: %v", i, err)
				}
				src := tr.String(set)
				back, err := Parse(set, src)
				if err != nil {
					t.Fatalf("tree %d: Parse(%q) failed: %v", i, src, err)
				}
				if !back.Equal(tr) {
					t.Fatalf("tree %d: round trip changed tree:\n encoded %q\n decoded %q",
						i, src, back.String(set))
				}
			}
		})
	}
}

// TestValidateRejectsAmbiguousCodecNames pins the Set.Validate rules
// that make the text encoding canonical: any name the tokenizer would
// split, collide, or misread as a constant is rejected up front.
func TestValidateRejectsAmbiguousCodecNames(t *testing.T) {
	bad := map[string]*Set{
		"term with space":   {Ops: TableIOps(), Terms: []string{"a b"}},
		"term with paren":   {Ops: TableIOps(), Terms: []string{"a("}},
		"numeric term":      {Ops: TableIOps(), Terms: []string{"1.5"}},
		"scientific term":   {Ops: TableIOps(), Terms: []string{"1e3"}},
		"duplicate terms":   {Ops: TableIOps(), Terms: []string{"a", "a"}},
		"op with space":     {Ops: append(TableIOps(), Op{Name: "my op", Arity: 1, F1: func(a float64) float64 { return a }}), Terms: []string{"a"}},
		"op with newline":   {Ops: append(TableIOps(), Op{Name: "f\n", Arity: 1, F1: func(a float64) float64 { return a }}), Terms: []string{"a"}},
		"duplicate op name": {Ops: append(TableIOps(), Add), Terms: []string{"a"}},
	}
	for name, set := range bad {
		if err := set.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The sets actually used across the repo must stay valid.
	good := &Set{Ops: TableIOps(), Terms: []string{"c", "q", "b", "d", "xbar"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Table I set rejected: %v", err)
	}
}
