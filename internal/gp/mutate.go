package gp

import "carbon/internal/rng"

// PointMutate replaces a single uniformly chosen node in place of kind:
// an operator becomes another operator of the same arity, a named
// terminal becomes another named terminal (or an ERC when the set
// enables them), a constant becomes a fresh ERC draw. Tree shape is
// preserved, so no limit checks are needed. The input is not mutated.
//
// Point mutation is the gentler companion of the paper's uniform
// (subtree) mutation; it is exposed for the operator-suite ablation
// (core.Config.LLPointMutProb).
func PointMutate(r *rng.Rand, s *Set, t Tree) Tree {
	out := t.Clone()
	i := r.Intn(len(out.nodes))
	n := out.nodes[i]
	switch n.kind {
	case kOp:
		arity := s.Ops[n.idx].Arity
		// Collect compatible replacements.
		var cands []uint8
		for oi, op := range s.Ops {
			if op.Arity == arity && uint8(oi) != n.idx {
				cands = append(cands, uint8(oi))
			}
		}
		if len(cands) > 0 {
			out.nodes[i].idx = cands[r.Intn(len(cands))]
		}
	case kTerm:
		out.nodes[i] = s.randomLeaf(r)
	case kConst:
		if s.ConstProb > 0 {
			out.nodes[i].val = r.Range(s.ConstMin, s.ConstMax)
		} else {
			out.nodes[i] = node{kind: kTerm, idx: uint8(r.Intn(len(s.Terms)))}
		}
	}
	return out
}

// ConstCount returns the number of ERC nodes in the tree.
func (t Tree) ConstCount() int {
	c := 0
	for _, n := range t.nodes {
		if n.kind == kConst {
			c++
		}
	}
	return c
}
