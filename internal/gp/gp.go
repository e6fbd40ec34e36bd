// Package gp is a genetic-programming engine for evolving arithmetic
// scoring functions, the predator encoding of CARBON (§IV of the paper).
//
// Trees are stored in flat prefix order (the representation DEAP uses),
// which makes the paper's operators natural: a subtree is a contiguous
// span, so one-point crossover swaps spans and uniform mutation replaces
// a span with a freshly grown one. Evaluation walks the prefix backwards
// with a value stack — no recursion, no allocation.
//
// A primitive Set pairs an operator set with a named terminal set
// (Table I in the paper): terminals are indices into a caller-supplied
// environment vector, so the same engine serves any problem whose
// features fit in a []float64.
package gp

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op is a primitive operator. Exactly one of F1/F2 must be set,
// matching Arity.
type Op struct {
	Name  string
	Arity int
	F1    func(a float64) float64
	F2    func(a, b float64) float64
}

// protEps guards protected division and modulo: denominators smaller in
// magnitude yield the conventional fallback value 1.
const protEps = 1e-12

// Predefined arithmetic operators: the paper's Table I operator set.
var (
	Add = Op{Name: "+", Arity: 2, F2: func(a, b float64) float64 { return a + b }}
	Sub = Op{Name: "-", Arity: 2, F2: func(a, b float64) float64 { return a - b }}
	Mul = Op{Name: "*", Arity: 2, F2: func(a, b float64) float64 { return a * b }}
	// Div is protected division: x/0 → 1.
	Div = Op{Name: "%", Arity: 2, F2: func(a, b float64) float64 {
		if math.Abs(b) < protEps {
			return 1
		}
		return a / b
	}}
	// Mod is protected modulo: mod(x, 0) → 1. Otherwise it is the
	// IEEE remainder, bit-identical to math.Mod (see modLanes, which
	// it runs on one lane).
	Mod = Op{Name: "mod", Arity: 2, F2: func(a, b float64) float64 {
		d := [1]float64{a}
		modLanes(d[:], d[:], []float64{b})
		return d[0]
	}}
	// Neg and Min/Max are extension operators (not in Table I) used by
	// the ablation benchmarks.
	Neg = Op{Name: "neg", Arity: 1, F1: func(a float64) float64 { return -a }}
	Min = Op{Name: "min", Arity: 2, F2: math.Min}
	Max = Op{Name: "max", Arity: 2, F2: math.Max}
)

// TableIOps returns the paper's exact operator set {+, -, *, %, mod}.
func TableIOps() []Op { return []Op{Add, Sub, Mul, Div, Mod} }

// Set is a primitive set: the operators and the named terminals trees
// may reference. Terminal i reads env[i] at evaluation time.
//
// Setting ConstProb > 0 enables ephemeral random constants (ERCs, an
// extension beyond the paper's Table I): during generation a leaf is,
// with that probability, a literal constant drawn uniformly from
// [ConstMin, ConstMax] instead of a named terminal. Constants print as
// numbers and Parse reads numeric tokens back as constants.
type Set struct {
	Ops   []Op
	Terms []string

	ConstProb          float64
	ConstMin, ConstMax float64
}

// Validate checks the set is usable for generation and evaluation.
func (s *Set) Validate() error {
	if len(s.Terms) == 0 {
		return errors.New("gp: set has no terminals")
	}
	if len(s.Ops) == 0 {
		return errors.New("gp: set has no operators")
	}
	if len(s.Ops) > 120 || len(s.Terms) > 120 {
		return errors.New("gp: set too large for compact node encoding")
	}
	opNames := make(map[string]int, len(s.Ops))
	for i, op := range s.Ops {
		switch op.Arity {
		case 1:
			if op.F1 == nil {
				return fmt.Errorf("gp: op %d (%s) has arity 1 but no F1", i, op.Name)
			}
		case 2:
			if op.F2 == nil {
				return fmt.Errorf("gp: op %d (%s) has arity 2 but no F2", i, op.Name)
			}
		default:
			return fmt.Errorf("gp: op %d (%s) has unsupported arity %d", i, op.Name, op.Arity)
		}
		if err := checkName("op", i, op.Name); err != nil {
			return err
		}
		if j, dup := opNames[op.Name]; dup {
			return fmt.Errorf("gp: ops %d and %d share the name %q", j, i, op.Name)
		}
		opNames[op.Name] = i
	}
	termNames := make(map[string]int, len(s.Terms))
	for i, t := range s.Terms {
		if err := checkName("terminal", i, t); err != nil {
			return err
		}
		if j, dup := termNames[t]; dup {
			return fmt.Errorf("gp: terminals %d and %d share the name %q", j, i, t)
		}
		termNames[t] = i
		// A terminal that tokenizes as a number would shadow constants
		// of that value in Parse, breaking Parse(s, t.String(s)) == t.
		if _, err := strconv.ParseFloat(t, 64); err == nil {
			return fmt.Errorf("gp: terminal %d (%s) is ambiguous with a numeric constant", i, t)
		}
	}
	if s.ConstProb < 0 || s.ConstProb > 1 || math.IsNaN(s.ConstProb) {
		return fmt.Errorf("gp: ConstProb %v outside [0,1]", s.ConstProb)
	}
	if s.ConstProb > 0 {
		if math.IsNaN(s.ConstMin) || math.IsNaN(s.ConstMax) ||
			math.IsInf(s.ConstMin, 0) || math.IsInf(s.ConstMax, 0) ||
			s.ConstMax < s.ConstMin {
			return fmt.Errorf("gp: bad ERC range [%v,%v]", s.ConstMin, s.ConstMax)
		}
	}
	return nil
}

// checkName rejects primitive names the S-expression codec cannot
// round-trip: empty names and names containing the tokenizer's
// separator characters (whitespace and parentheses).
func checkName(kind string, i int, name string) error {
	if name == "" {
		return fmt.Errorf("gp: %s %d has empty name", kind, i)
	}
	if strings.ContainsAny(name, "() \t\n\r") {
		return fmt.Errorf("gp: %s %d (%q) contains S-expression separator characters", kind, i, name)
	}
	return nil
}

// nodeKind discriminates prefix-order entries.
type nodeKind uint8

const (
	kOp    nodeKind = iota // operator; idx into Set.Ops
	kTerm                  // named terminal; idx into Set.Terms / env
	kConst                 // ephemeral random constant; value in val
)

// node is one prefix-order entry. Constants carry their value inline so
// subtree splicing between trees needs no table fix-ups.
type node struct {
	kind nodeKind
	idx  uint8
	val  float64
}

// leaf reports whether the node consumes no operands.
func (n node) leaf() bool { return n.kind != kOp }

// Tree is an expression tree in flat prefix order. The zero Tree is
// invalid; build trees with Set generation methods or Parse.
type Tree struct {
	nodes []node
}

// Size returns the number of nodes.
func (t Tree) Size() int { return len(t.nodes) }

// Clone returns a deep copy.
func (t Tree) Clone() Tree {
	return Tree{nodes: append([]node(nil), t.nodes...)}
}

// Equal reports structural equality.
func (t Tree) Equal(o Tree) bool {
	if len(t.nodes) != len(o.nodes) {
		return false
	}
	for i := range t.nodes {
		if t.nodes[i] != o.nodes[i] {
			return false
		}
	}
	return true
}

// spanEnd returns the index one past the subtree rooted at i.
func (t Tree) spanEnd(s *Set, i int) int {
	need := 1
	for j := i; j < len(t.nodes); j++ {
		n := t.nodes[j]
		need--
		if !n.leaf() {
			need += s.Ops[n.idx].Arity
		}
		if need == 0 {
			return j + 1
		}
	}
	return len(t.nodes) // malformed; Check catches this
}

// Depth returns the tree height (a lone terminal has depth 0).
func (t Tree) Depth(s *Set) int {
	max, depth := 0, 0
	rem := make([]int, 0, 32) // stack of remaining-children counters
	for _, n := range t.nodes {
		if depth > max {
			max = depth
		}
		if !n.leaf() {
			rem = append(rem, s.Ops[n.idx].Arity)
			depth++
			continue
		}
		for len(rem) > 0 {
			rem[len(rem)-1]--
			if rem[len(rem)-1] > 0 {
				break
			}
			rem = rem[:len(rem)-1]
			depth--
		}
	}
	return max
}

// MaxNodes is the hard node-count ceiling for evaluable trees: the
// operand stack of Eval is sized for it. Check rejects bigger trees, so every decode path —
// checkpoint restore, job specs, migrant injection — degrades to an
// error on hostile input instead of overflowing the evaluation stack.
// Breeding stays far below it (Limits.MaxSize is clamped to MaxNodes).
const MaxNodes = 512

// Check verifies the tree is a single well-formed expression over s.
func (t Tree) Check(s *Set) error {
	if len(t.nodes) == 0 {
		return errors.New("gp: empty tree")
	}
	if len(t.nodes) > MaxNodes {
		return fmt.Errorf("gp: tree size %d exceeds the %d-node evaluation limit", len(t.nodes), MaxNodes)
	}
	need := 1
	for i, n := range t.nodes {
		if need == 0 {
			return fmt.Errorf("gp: trailing nodes at %d", i)
		}
		need--
		switch n.kind {
		case kTerm:
			if int(n.idx) >= len(s.Terms) {
				return fmt.Errorf("gp: terminal index %d out of range at %d", n.idx, i)
			}
		case kConst:
			if math.IsNaN(n.val) || math.IsInf(n.val, 0) {
				return fmt.Errorf("gp: bad constant %v at %d", n.val, i)
			}
		case kOp:
			if int(n.idx) >= len(s.Ops) {
				return fmt.Errorf("gp: op index %d out of range at %d", n.idx, i)
			}
			need += s.Ops[n.idx].Arity
		default:
			return fmt.Errorf("gp: unknown node kind %d at %d", n.kind, i)
		}
	}
	if need != 0 {
		return fmt.Errorf("gp: truncated tree, %d operands missing", need)
	}
	return nil
}

// evalStackSize bounds the operand stack. A prefix expression scanned
// backwards never stacks more operands than its node count, and Check
// rejects trees above MaxNodes — so every tree built by the public
// constructors (generation, Parse, breeding) fits. The panic in
// Eval is a last-resort guard against hand-built Tree values that
// skipped Check.
const evalStackSize = MaxNodes

// Eval evaluates the tree against the environment vector env, whose
// layout must match s.Terms. The result is sanitized: NaN collapses to 0
// so downstream sorting comparators stay total.
func (t Tree) Eval(s *Set, env []float64) float64 {
	if len(t.nodes) > evalStackSize {
		panic(fmt.Sprintf("gp: tree size %d exceeds evaluation stack %d", len(t.nodes), evalStackSize))
	}
	var stack [evalStackSize]float64
	top := -1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.kind == kTerm {
			top++
			stack[top] = env[n.idx]
			continue
		}
		if n.kind == kConst {
			top++
			stack[top] = n.val
			continue
		}
		op := &s.Ops[n.idx]
		if op.Arity == 1 {
			stack[top] = op.F1(stack[top])
		} else {
			a, b := stack[top], stack[top-1]
			top--
			stack[top] = op.F2(a, b)
		}
	}
	v := stack[0]
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// String renders the tree as an S-expression, e.g. (+ c (* d b)) — the
// canonical text encoding. For every well-formed tree t over a valid
// set s, Parse(s, t.String(s)) reproduces t exactly: Set.Validate
// rejects primitive names that would break that property (separator
// characters, duplicates, number-like terminals), and constants print
// with strconv's shortest exact float64 representation. This is the
// wire format used by checkpoints, job results and trace files.
func (t Tree) String(s *Set) string {
	var b strings.Builder
	t.write(&b, s, 0)
	return b.String()
}

func (t Tree) write(b *strings.Builder, s *Set, i int) int {
	n := t.nodes[i]
	if n.kind == kTerm {
		b.WriteString(s.Terms[n.idx])
		return i + 1
	}
	if n.kind == kConst {
		b.WriteString(strconv.FormatFloat(n.val, 'g', -1, 64))
		return i + 1
	}
	op := s.Ops[n.idx]
	b.WriteByte('(')
	b.WriteString(op.Name)
	j := i + 1
	for k := 0; k < op.Arity; k++ {
		b.WriteByte(' ')
		j = t.write(b, s, j)
	}
	b.WriteByte(')')
	return j
}

// Parse reads an S-expression produced by String (or hand-written) back
// into a Tree over set s.
func Parse(s *Set, src string) (Tree, error) {
	toks := tokenize(src)
	var t Tree
	rest, err := parseExpr(s, toks, &t)
	if err != nil {
		return Tree{}, err
	}
	if len(rest) != 0 {
		return Tree{}, fmt.Errorf("gp: trailing tokens %v", rest)
	}
	if err := t.Check(s); err != nil {
		return Tree{}, err
	}
	return t, nil
}

func tokenize(src string) []string {
	src = strings.ReplaceAll(src, "(", " ( ")
	src = strings.ReplaceAll(src, ")", " ) ")
	return strings.Fields(src)
}

func parseExpr(s *Set, toks []string, t *Tree) ([]string, error) {
	if len(toks) == 0 {
		return nil, errors.New("gp: unexpected end of input")
	}
	tok := toks[0]
	if tok == "(" {
		if len(toks) < 2 {
			return nil, errors.New("gp: dangling (")
		}
		name := toks[1]
		opIdx := -1
		for i, op := range s.Ops {
			if op.Name == name {
				opIdx = i
				break
			}
		}
		if opIdx < 0 {
			return nil, fmt.Errorf("gp: unknown operator %q", name)
		}
		t.nodes = append(t.nodes, node{idx: uint8(opIdx)})
		rest := toks[2:]
		var err error
		for k := 0; k < s.Ops[opIdx].Arity; k++ {
			rest, err = parseExpr(s, rest, t)
			if err != nil {
				return nil, err
			}
		}
		if len(rest) == 0 || rest[0] != ")" {
			return nil, fmt.Errorf("gp: missing ) after %s", name)
		}
		return rest[1:], nil
	}
	if tok == ")" {
		return nil, errors.New("gp: unexpected )")
	}
	for i, term := range s.Terms {
		if term == tok {
			t.nodes = append(t.nodes, node{kind: kTerm, idx: uint8(i)})
			return toks[1:], nil
		}
	}
	if v, err := strconv.ParseFloat(tok, 64); err == nil {
		t.nodes = append(t.nodes, node{kind: kConst, val: v})
		return toks[1:], nil
	}
	return nil, fmt.Errorf("gp: unknown terminal %q", tok)
}
