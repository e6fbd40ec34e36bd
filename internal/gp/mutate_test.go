package gp

import (
	"testing"

	"carbon/internal/rng"
)

func TestPointMutatePreservesShape(t *testing.T) {
	s := ercSet()
	r := rng.New(71)
	for trial := 0; trial < 300; trial++ {
		tr := s.Ramped(r, 1, 5)
		mu := PointMutate(r, s, tr)
		if err := mu.Check(s); err != nil {
			t.Fatalf("invalid mutant: %v", err)
		}
		if mu.Size() != tr.Size() {
			t.Fatalf("point mutation changed size %d → %d", tr.Size(), mu.Size())
		}
		if mu.Depth(s) != tr.Depth(s) {
			t.Fatal("point mutation changed depth")
		}
		// At most one position differs.
		diffs := 0
		for i := range tr.nodes {
			if tr.nodes[i] != mu.nodes[i] {
				diffs++
			}
		}
		if diffs > 1 {
			t.Fatalf("%d positions changed", diffs)
		}
	}
}

func TestPointMutateDoesNotMutateInput(t *testing.T) {
	s := ercSet()
	r := rng.New(73)
	tr := s.Ramped(r, 2, 4)
	cp := tr.Clone()
	for i := 0; i < 50; i++ {
		PointMutate(r, s, tr)
	}
	if !tr.Equal(cp) {
		t.Fatal("input mutated")
	}
}

func TestPointMutateOperatorKeepsArity(t *testing.T) {
	s := &Set{Ops: []Op{Add, Sub, Neg}, Terms: []string{"a"}}
	r := rng.New(75)
	tr := MustParse(s, "(+ (neg a) a)")
	for trial := 0; trial < 200; trial++ {
		mu := PointMutate(r, s, tr)
		if err := mu.Check(s); err != nil {
			t.Fatalf("arity broke: %v (%s)", err, mu.String(s))
		}
	}
}

func TestPointMutateConstWithoutERC(t *testing.T) {
	// A constant in a set without ERCs (e.g. parsed) must mutate into a
	// named terminal, not a fresh constant.
	s := &Set{Ops: TableIOps(), Terms: []string{"a", "b"}}
	tr := MustParse(s, "2.5")
	r := rng.New(77)
	mutatedToTerm := false
	for trial := 0; trial < 50; trial++ {
		mu := PointMutate(r, s, tr)
		if mu.ConstCount() == 0 {
			mutatedToTerm = true
		}
	}
	if !mutatedToTerm {
		t.Fatal("constant never became a terminal")
	}
}
