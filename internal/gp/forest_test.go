package gp

import (
	"math"
	"strings"
	"testing"

	"carbon/internal/rng"
)

// forestEnvs are lane environments that differ on purpose: NaN and
// ±Inf in single lanes, denominators straddling protEps, signed zeros.
func forestEnvs(a, b, c, d, e float64, nanAt int) [][]float64 {
	below := math.Nextafter(protEps, 0)
	base := []float64{a, b, c, d, e}
	nan := append([]float64(nil), base...)
	nan[nanAt%5] = math.NaN()
	return [][]float64{
		base,
		nan,
		{e, d, c, b, a},
		{math.Inf(1), a, math.Inf(-1), b, c},
		{math.Inf(1), math.Inf(1), math.NaN(), math.Inf(-1), 0},
		{protEps, -below, below, -protEps, d},
		{0, math.Copysign(0, -1), a, 0, e},
	}
}

// checkForest compiles trees into one forest and runs it once over
// len(envs) lanes bound by laneTerms, into zeroed rows. Every tree that
// passes Check must read back, from its row, the bits rowEval gives on
// each lane's environment; every tree that fails Check must report
// Check's error. It returns the forest for further assertions.
func checkForest(t *testing.T, s *Set, trees []Tree, envs [][]float64, bcast []bool) *Forest {
	t.Helper()
	var f Forest
	f.Compile(s, trees)
	terms, lanes := laneTerms(s, envs, bcast)
	n := len(envs)
	stride := n + 3 // rows need not be packed
	out := make([]float64, f.Rows()*stride)
	NewVM().AddRoots(&f, terms, n, out, stride)
	for ti, tr := range trees {
		row, err := f.Row(ti)
		if cerr := tr.Check(s); cerr != nil {
			if err == nil || err.Error() != cerr.Error() {
				t.Fatalf("tree %d fails Check (%v), forest reports %v", ti, cerr, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("tree %d (%s): %v", ti, tr.String(s), err)
		}
		for l, env := range lanes {
			want := rowEval(s, tr, env)
			if got := out[row*stride+l]; math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("tree %d %s, lane %d on %v (broadcast %v): interpreter %v (%x), forest %v (%x)",
					ti, tr.String(s), l, env, bcast, want, math.Float64bits(want), got, math.Float64bits(got))
			}
		}
	}
	return &f
}

// subtree returns a copy of the subtree of t rooted at prefix index i.
func subtree(s *Set, t Tree, i int) Tree {
	return Tree{nodes: append([]node(nil), t.nodes[i:t.spanEnd(s, i)]...)}
}

// joinTree returns the tree (op a b) for the binary operator op.
func joinTree(op int, a, b Tree) Tree {
	nodes := append([]node{{idx: uint8(op)}}, a.nodes...)
	return Tree{nodes: append(nodes, b.nodes...)}
}

// FuzzForestEval is the differential fuzz of the forest runner: 2–5
// trees drawn from the seed — fresh trees, duplicates of earlier ones,
// subtrees of earlier ones and trees that contain an earlier one — are
// compiled into one forest, and every tree's zeroed row must hold,
// lane for lane, the bits 0 + Tree.Eval gives. Sharing makes one tree's root
// another tree's interior node, so a NaN collapsed for the root's row
// must not leak into its parent.
func FuzzForestEval(f *testing.F) {
	f.Add(uint64(1), 1.0, 2.0, 3.0, 4.0, 5.0)
	f.Add(uint64(7), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1), 1e-300)
	f.Add(uint64(3), math.NaN(), 1e308, -1e308, 1e-13, -1e-13)
	f.Add(uint64(42), 0.5, -0.5, protEps, -protEps, 2*protEps)
	f.Add(uint64(0xc00000000000000b), -7.25, 3.0, 1e-12, 0.0, 6.5)
	set := compileSet()
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c, d, e float64) {
		r := rng.New(seed)
		trees := []Tree{set.Ramped(r, 0, 5)}
		for len(trees) < 2+int(seed%4) {
			prev := trees[r.Intn(len(trees))]
			switch r.Intn(4) {
			case 0:
				trees = append(trees, set.Ramped(r, 0, 5))
			case 1:
				trees = append(trees, prev.Clone())
			case 2:
				trees = append(trees, subtree(set, prev, r.Intn(prev.Size())))
			default:
				other := set.Ramped(r, 0, 3)
				op := r.Intn(len(set.Ops))
				for set.Ops[op].Arity != 2 {
					op = r.Intn(len(set.Ops))
				}
				if r.Bool(0.5) {
					prev, other = other, prev
				}
				trees = append(trees, joinTree(op, prev, other))
			}
		}
		bcast := make([]bool, len(set.Terms))
		for k := range bcast {
			bcast[k] = seed>>(59+k)&1 == 1
		}
		fr := checkForest(t, set, trees, forestEnvs(a, b, c, d, e, int(seed%5)), bcast)
		if fr.Rows() > len(trees) {
			t.Fatalf("%d distinct roots for %d trees", fr.Rows(), len(trees))
		}
	})
}

// A root that is also another tree's operand: (- c q) is NaN where c
// and q are the same infinity, so its own row reads 0, while its parent
// (% b (- c q)) must see the raw NaN — b/NaN is NaN, collapsed to 0 —
// not the collapsed 0, which would take the protected fallback 1.
func TestForestRootIsInteriorNode(t *testing.T) {
	s := compileSet()
	var trees []Tree
	for _, src := range []string{"(% b (- c q))", "(- c q)", "(% b (- c q))", "c"} {
		tr, err := Parse(s, src)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	envs := [][]float64{
		{math.Inf(1), math.Inf(1), 2, 0, 0},
		{math.Inf(-1), math.Inf(-1), -3, 0, 0},
		{1, 4, 6, 0, 0},
	}
	f := checkForest(t, s, trees, envs, make([]bool, 5))
	// Duplicates share a root; "c" is also an interior node of the others.
	if f.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", f.Rows())
	}
	if r0, _ := f.Row(0); r0 != 0 {
		t.Fatalf("first tree's row = %d, want 0", r0)
	}
	if r2, _ := f.Row(2); r2 != 0 {
		t.Fatalf("duplicate tree's row = %d, want 0 (shared with tree 0)", r2)
	}
	if f.OpNodes() != 2 {
		t.Fatalf("operator nodes = %d, want 2 (- and %%)", f.OpNodes())
	}
	// The scorer's form: the parent's row sums 0 over the NaN lanes.
	acc := make([]float64, f.Rows()*len(envs))
	terms, _ := laneTerms(s, envs, make([]bool, 5))
	vm := NewVM()
	vm.AddRoots(f, terms, len(envs), acc, len(envs))
	vm.AddRoots(f, terms, len(envs), acc, len(envs))
	for l, want := range []float64{0, 0, 2 * (6.0 / -3)} {
		if got := acc[l]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lane %d: parent row sums to %v, want %v", l, got, want)
		}
	}
}

// A tree that fails Check keeps its own error; the trees around it
// still compile and evaluate.
func TestForestCheckFailureIsPerTree(t *testing.T) {
	s := compileSet()
	good, err := Parse(s, "(* (+ c q) (mod d x))")
	if err != nil {
		t.Fatal(err)
	}
	bad := []Tree{
		{},
		{nodes: []node{{idx: 0}}},
		{nodes: []node{{kind: kTerm, idx: 99}}},
		{nodes: append([]node{{kind: kConst, val: math.NaN()}}, good.nodes...)},
	}
	trees := []Tree{good, bad[0], subtree(s, good, 1), bad[1], bad[2], good, bad[3]}
	envs := forestEnvs(1, -2, 3.5, 0, 7, 3)
	f := checkForest(t, s, trees, envs, []bool{false, false, true, true, false})
	for _, i := range []int{1, 3, 4, 6} {
		if _, err := f.Row(i); err == nil {
			t.Fatalf("tree %d: malformed tree compiled", i)
		}
	}
	if f.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", f.Rows())
	}
	// A forest of only failing trees is empty and runs as a no-op.
	var empty Forest
	empty.Compile(s, bad)
	if empty.Rows() != 0 || empty.OpNodes() != 0 {
		t.Fatalf("all-bad forest has %d rows, %d op nodes", empty.Rows(), empty.OpNodes())
	}
	NewVM().AddRoots(&empty, make([]Term, 5), 4, nil, 4)
}

// Slots are reused once a node's last reader has run: a left-deep
// chain needs a handful of slots however long it is.
func TestForestReusesSlots(t *testing.T) {
	s := compileSet()
	tr, err := Parse(s, oversizeExpr(255))
	if err != nil {
		t.Fatal(err)
	}
	chain := strings.Replace(oversizeExpr(100), "(+ c", "(* q", 1)
	tr2, err := Parse(s, chain)
	if err != nil {
		t.Fatal(err)
	}
	f := checkForest(t, s, []Tree{tr, tr2}, forestEnvs(1, 2, 3, 4, 5, 0), make([]bool, 5))
	if f.slots > 4 {
		t.Fatalf("%d slots for two left-deep chains, want at most 4", f.slots)
	}
}
