package gp

import (
	"math"
	"strings"
	"testing"

	"carbon/internal/rng"
)

func compileSet() *Set {
	return &Set{
		Ops:       []Op{Add, Sub, Mul, Div, Mod, Neg, Min, Max},
		Terms:     []string{"c", "q", "b", "d", "x"},
		ConstProb: 0.25, ConstMin: -3, ConstMax: 3,
	}
}

// mustCompile parses src over s and compiles it.
func mustCompile(t *testing.T, s *Set, src string) (Tree, *Program) {
	t.Helper()
	tr, err := Parse(s, src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	p, err := Compile(s, tr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return tr, p
}

// evalOne runs p at lane width 1: every terminal is a one-lane vector
// over env.
func evalOne(vm *VM, p *Program, env []float64) float64 {
	var buf [8]Term
	terms := buf[:len(env)]
	for i := range terms {
		terms[i].V = env[i : i+1]
	}
	return vm.EvalLanes(p, terms, 1)[0]
}

// checkLanes runs p once over len(envs) lanes, lane i reading envs[i],
// except that every terminal t with bcast[t] set is broadcast as the
// scalar envs[0][t]. Each lane must return the bits the interpreter
// returns on that lane's own environment.
func checkLanes(t *testing.T, s *Set, tr Tree, p *Program, vm *VM, envs [][]float64, bcast []bool) {
	t.Helper()
	terms := make([]Term, len(s.Terms))
	lanes := make([][]float64, len(envs))
	for i, env := range envs {
		lanes[i] = append([]float64(nil), env...)
	}
	for k := range terms {
		if bcast[k] {
			terms[k].S = envs[0][k]
			for _, env := range lanes {
				env[k] = envs[0][k]
			}
			continue
		}
		terms[k].V = make([]float64, len(envs))
		for i, env := range lanes {
			terms[k].V[i] = env[k]
		}
	}
	got := vm.EvalLanes(p, terms, len(envs))
	if len(got) != len(envs) {
		t.Fatalf("%s: %d lanes in, %d values out", tr.String(s), len(envs), len(got))
	}
	for i, env := range lanes {
		want := tr.Eval(s, env)
		if math.Float64bits(want) != math.Float64bits(got[i]) {
			t.Fatalf("%s, lane %d of %d on %v (broadcast %v): interpreter %v (%x), VM %v (%x)",
				tr.String(s), i, len(envs), env, bcast,
				want, math.Float64bits(want), got[i], math.Float64bits(got[i]))
		}
	}
}

func TestCompiledMatchesInterpreterOnFixtures(t *testing.T) {
	s := compileSet()
	vm := NewVM()
	exprs := []string{
		"c",
		"-2.5",
		"(+ c q)",
		"(- (* c q) (% d x))",
		"(% c (- q q))",   // protected division fallback
		"(mod d (- x x))", // protected modulo fallback
		"(neg (min c (max q b)))",
		"(+ (% 1 0.0000000000001) c)", // denominator just above protEps
		"(* (+ c (* q (- b (% d (mod x c))))) (neg q))",
	}
	envs := [][]float64{
		{1, 2, 3, 4, 5},
		{0, 0, 0, 0, 0},
		{math.Inf(1), math.Inf(-1), 1e308, -1e308, 1e-308},
		{math.NaN(), 1, math.NaN(), -0.0, 2},
		{-1.5, 2.5, -3.5, 4.5, -5.5},
	}
	for _, src := range exprs {
		tr, p := mustCompile(t, s, src)
		if p.Size() != tr.Size() {
			t.Errorf("%q: program size %d, tree size %d", src, p.Size(), tr.Size())
		}
		for _, env := range envs {
			want := tr.Eval(s, env)
			got := evalOne(vm, p, env)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Errorf("%q on %v: interpreter %v (%x), VM %v (%x)",
					src, env, want, math.Float64bits(want), got, math.Float64bits(got))
			}
		}
		// All environments side by side as lanes, then again with the
		// scorer's broadcast pattern (b and d shared by every lane).
		checkLanes(t, s, tr, p, vm, envs, []bool{false, false, false, false, false})
		checkLanes(t, s, tr, p, vm, envs, []bool{false, false, true, true, false})
	}
}

// Custom operators (not the builtin function values) must take the
// generic call path and still match the interpreter exactly.
func TestCompileCustomOpsFallBackToCalls(t *testing.T) {
	s := &Set{
		Ops: []Op{
			{Name: "sq", Arity: 1, F1: func(a float64) float64 { return a * a }},
			{Name: "hyp", Arity: 2, F2: math.Hypot},
			Add,
		},
		Terms: []string{"u", "v"},
	}
	tr, p := mustCompile(t, s, "(+ (sq u) (hyp u v))")
	vm := NewVM()
	envs := [][]float64{{3, 4}, {-1, 1e154}, {math.NaN(), 2}}
	for _, env := range envs {
		want := tr.Eval(s, env)
		got := evalOne(vm, p, env)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("env %v: interpreter %v, VM %v", env, want, got)
		}
	}
	checkLanes(t, s, tr, p, vm, envs, []bool{false, false})
	checkLanes(t, s, tr, p, vm, envs, []bool{false, true})
}

func TestProgramRecompileReusesStorage(t *testing.T) {
	s := compileSet()
	r := rng.New(11)
	var p Program
	vm := NewVM()
	env := []float64{1, 2, 3, 4, 5}
	for i := 0; i < 50; i++ {
		tr := s.Ramped(r, 0, 6)
		if err := p.Compile(s, tr); err != nil {
			t.Fatalf("recompile %d: %v", i, err)
		}
		want := tr.Eval(s, env)
		got := evalOne(vm, &p, env)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("recompile %d: interpreter %v, VM %v", i, want, got)
		}
	}
}

// oversizeExpr builds a left-deep S-expression of exactly 2k+1 nodes
// (k "+" ops over k+1 "c" leaves).
func oversizeExpr(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		b.WriteString("(+ ")
	}
	b.WriteString("c")
	for i := 0; i < k; i++ {
		b.WriteString(" c)")
	}
	return b.String()
}

// A 513-node tree — one past MaxNodes — must be rejected by Parse (and
// hence every decode path) and by Compile, not crash Eval.
func TestOversizeTreeRejected(t *testing.T) {
	s := compileSet()
	// 256 ops + 257 leaves = 513 nodes.
	src := oversizeExpr(256)
	if _, err := Parse(s, src); err == nil {
		t.Fatal("Parse accepted a 513-node tree")
	}
	// Exactly at the limit still parses, evaluates and compiles.
	ok, err := Parse(s, oversizeExpr(255))
	if err != nil {
		t.Fatalf("Parse rejected a 511-node tree: %v", err)
	}
	if got := ok.Size(); got != 511 {
		t.Fatalf("expected 511 nodes, got %d", got)
	}
	p, err := Compile(s, ok)
	if err != nil {
		t.Fatalf("Compile rejected a legal tree: %v", err)
	}
	env := []float64{1, 2, 3, 4, 5}
	want := ok.Eval(s, env)
	if got := evalOne(NewVM(), p, env); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("deep tree: interpreter %v, VM %v", want, got)
	}
	// A hand-built oversize Tree value (bypassing Parse) must fail
	// Check and Compile the same way.
	big := Tree{}
	for i := 0; i < 256; i++ {
		big.nodes = append(big.nodes, node{idx: 0}) // "+"
	}
	for i := 0; i < 257; i++ {
		big.nodes = append(big.nodes, node{kind: kTerm, idx: 0})
	}
	if err := big.Check(s); err == nil {
		t.Fatal("Check accepted a 513-node tree")
	}
	if _, err := Compile(s, big); err == nil {
		t.Fatal("Compile accepted a 513-node tree")
	}
}

func TestCompileRejectsMalformedTrees(t *testing.T) {
	s := compileSet()
	bad := []Tree{
		{},                                      // empty
		{nodes: []node{{idx: 0}}},               // truncated (+ with no operands)
		{nodes: []node{{kind: kTerm, idx: 99}}}, // terminal out of range
	}
	for i, tr := range bad {
		if _, err := Compile(s, tr); err == nil {
			t.Errorf("case %d: Compile accepted a malformed tree", i)
		}
	}
}

// The lane path allocates nothing once the stack has grown, at width 1
// and at the scorer's block width, with vector and broadcast terminals.
func TestVMEvalZeroAlloc(t *testing.T) {
	s := compileSet()
	_, p := mustCompile(t, s, "(* (+ c (% q d)) (- b (mod x c)))")
	vm := NewVM()
	env := []float64{1, 2, 3, 4, 5}
	evalOne(vm, p, env) // grow the stack once
	if allocs := testing.AllocsPerRun(200, func() { evalOne(vm, p, env) }); allocs != 0 {
		t.Fatalf("EvalLanes at width 1 allocates %v per call, want 0", allocs)
	}
	const width = 128
	vec := make([]float64, width)
	for i := range vec {
		vec[i] = float64(i) - 40.5
	}
	terms := []Term{{V: vec}, {V: vec}, {S: 3}, {S: -4}, {V: vec}}
	vm.EvalLanes(p, terms, width)
	if allocs := testing.AllocsPerRun(200, func() { vm.EvalLanes(p, terms, width) }); allocs != 0 {
		t.Fatalf("EvalLanes at width %d allocates %v per call, want 0", width, allocs)
	}
}

// FuzzCompiledEval is the differential fuzz of the VM contract: for
// any valid tree and any environments — including NaN, ±Inf and
// protected-division edge cases — every lane of the VM must return the
// bit-identical float64 the interpreter returns on that lane's
// environment. The lanes differ on purpose: NaN in one lane only, ±Inf,
// denominators straddling protEps, signed zeros, and the fuzzed values
// in both orders, so a NaN→0 fix-up or any other value leaking across
// lanes, or a dependence on lane order, fails. The high seed bits pick
// which terminals are broadcast rather than per-lane.
func FuzzCompiledEval(f *testing.F) {
	f.Add(uint64(1), 1.0, 2.0, 3.0, 4.0, 5.0)
	f.Add(uint64(7), math.Inf(1), math.Inf(-1), 0.0, math.Copysign(0, -1), 1e-300)
	f.Add(uint64(3), math.NaN(), 1e308, -1e308, 1e-13, -1e-13)
	f.Add(uint64(42), 0.5, -0.5, protEps, -protEps, 2*protEps)
	f.Add(uint64(0xc00000000000000b), -7.25, 3.0, 1e-12, 0.0, 6.5)
	set := compileSet()
	below := math.Nextafter(protEps, 0)
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c, d, e float64) {
		r := rng.New(seed)
		tree := set.Ramped(r, 0, 6)
		prog, err := Compile(set, tree)
		if err != nil {
			t.Fatalf("valid tree failed to compile: %v", err)
		}
		base := []float64{a, b, c, d, e}
		nan := append([]float64(nil), base...)
		nan[seed%5] = math.NaN()
		envs := [][]float64{
			base,
			nan,
			{e, d, c, b, a},
			{math.Inf(1), a, math.Inf(-1), b, c},
			{protEps, -below, below, -protEps, d},
			{0, math.Copysign(0, -1), a, 0, e},
			{a, b, c, d, e},
		}
		bcast := make([]bool, len(set.Terms))
		for k := range bcast {
			bcast[k] = seed>>(59+k)&1 == 1
		}
		vm := NewVM()
		checkLanes(t, set, tree, prog, vm, envs, bcast)
		// Reversed lane order on the same VM: every lane still matches.
		for i, j := 0, len(envs)-1; i < j; i, j = i+1, j-1 {
			envs[i], envs[j] = envs[j], envs[i]
		}
		checkLanes(t, set, tree, prog, vm, envs, bcast)
	})
}
