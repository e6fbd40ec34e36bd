// Tree compiler and bytecode VM (DESIGN.md §5j).
//
// Tree.Eval walks the flat prefix encoding backwards with a value
// stack; the scan order is a pure function of the tree, so it can be
// recorded once and replayed without re-decoding nodes. Compile lowers
// a validated tree into exactly that instruction sequence — flat
// postfix bytecode with an inline constant pool — and VM replays it
// against any number of environment vectors with caller-owned scratch.
// Steady-state evaluation allocates nothing: the interpreter zeroes a
// 4KiB operand array per call, the VM reuses a slice sized to the
// program's real high-water mark.
//
// Determinism: the VM executes the same float64 operations in the same
// order as Tree.Eval — Table I operators are specialized to dedicated
// opcodes whose bodies are copies of the builtin functions (same
// protected-division/modulo epsilon and fallback), custom operators
// fall back to calling the Op function itself, intermediate NaN/±Inf
// values propagate untouched, and only the root value collapses NaN to
// 0 exactly like Eval. Results are therefore bit-identical to the
// interpreter (FuzzCompiledEval proves it differentially).
package gp

import (
	"fmt"
	"math"
	"reflect"
)

// opcode selects one VM instruction. Table I operators (plus the
// extension builtins) get dedicated opcodes so the hot loop never
// makes an indirect call; opCall1/opCall2 cover custom operators.
type opcode uint8

const (
	opConst opcode = iota // push val
	opTerm                // push env[idx]
	opAdd
	opSub
	opMul
	opDivP // protected division, x/0 → 1
	opModP // protected modulo, mod(x,0) → 1
	opNeg
	opMin
	opMax
	opCall1 // ops[idx].F1
	opCall2 // ops[idx].F2
)

// instr is one bytecode instruction. Constants are carried inline
// (val), terminals and custom-operator calls index via idx.
type instr struct {
	op  opcode
	idx uint8
	val float64
}

// Program is a compiled tree: the instruction stream in execution
// order, the operator table for custom-op fallback, and the exact
// operand-stack requirement. A Program is immutable once Compile
// returns, so any number of VMs may execute it concurrently; the
// engine compiles each predator once per generation and shares the
// program across workers.
type Program struct {
	code  []instr
	ops   []Op // the compile set's operators, for opCall fallback
	terms int  // required environment length (len(set.Terms) at compile)
	depth int  // operand-stack high-water mark
	size  int  // node count of the source tree
}

// Size returns the node count of the compiled tree.
func (p *Program) Size() int { return p.size }

// Terms returns the environment length the program requires.
func (p *Program) Terms() int { return p.terms }

// builtinOps maps an Op function's code pointer to its dedicated
// opcode. Identity by function pointer is exact: a set whose operator
// IS the builtin (shared function value) specializes, anything else —
// even a same-named reimplementation — takes the generic call path, so
// specialization can never change semantics.
var builtin1 = map[uintptr]opcode{
	reflect.ValueOf(Neg.F1).Pointer(): opNeg,
}

var builtin2 = map[uintptr]opcode{
	reflect.ValueOf(Add.F2).Pointer(): opAdd,
	reflect.ValueOf(Sub.F2).Pointer(): opSub,
	reflect.ValueOf(Mul.F2).Pointer(): opMul,
	reflect.ValueOf(Div.F2).Pointer(): opDivP,
	reflect.ValueOf(Mod.F2).Pointer(): opModP,
	reflect.ValueOf(Min.F2).Pointer(): opMin,
	reflect.ValueOf(Max.F2).Pointer(): opMax,
}

// Compile lowers a validated tree to bytecode. It rejects anything
// Check rejects (including trees over MaxNodes), so a compiled program
// can never index outside an environment of len(s.Terms) or overflow
// its declared stack depth.
func Compile(s *Set, t Tree) (*Program, error) {
	p := &Program{}
	if err := p.Compile(s, t); err != nil {
		return nil, err
	}
	return p, nil
}

// Compile recompiles the program in place, reusing the instruction
// buffer. One Program per worker plus one Compile per (predator,
// generation) makes the evaluation wave allocation-free in steady
// state. The program must not be executing concurrently.
func (p *Program) Compile(s *Set, t Tree) error {
	if err := t.Check(s); err != nil {
		return err
	}
	code := p.code[:0]
	// Emit in the interpreter's execution order: the prefix encoding
	// scanned backwards. This is postfix of the mirrored tree — every
	// operator sees its LEFT operand on top of the stack, matching
	// Eval's a=stack[top], b=stack[top-1] convention.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		switch n.kind {
		case kTerm:
			code = append(code, instr{op: opTerm, idx: n.idx})
		case kConst:
			code = append(code, instr{op: opConst, val: n.val})
		default:
			op := &s.Ops[n.idx]
			if op.Arity == 1 {
				if oc, ok := builtin1[reflect.ValueOf(op.F1).Pointer()]; ok {
					code = append(code, instr{op: oc})
				} else {
					code = append(code, instr{op: opCall1, idx: n.idx})
				}
			} else {
				if oc, ok := builtin2[reflect.ValueOf(op.F2).Pointer()]; ok {
					code = append(code, instr{op: oc})
				} else {
					code = append(code, instr{op: opCall2, idx: n.idx})
				}
			}
		}
	}
	// Simulate the stack to record the true high-water mark (Check
	// already proved well-formedness, so cur ends at exactly 1).
	cur, depth := 0, 0
	for _, ins := range code {
		switch ins.op {
		case opConst, opTerm:
			cur++
			if cur > depth {
				depth = cur
			}
		case opNeg, opCall1:
			// unary: replaces the top operand
		default:
			cur--
		}
	}
	if cur != 1 {
		return fmt.Errorf("gp: compile stack imbalance %d", cur)
	}
	p.code = code
	p.ops = s.Ops
	p.terms = len(s.Terms)
	p.depth = depth
	p.size = len(t.nodes)
	return nil
}

// VM executes compiled programs. It owns the operand stack, so it is
// not safe for concurrent use — create one per worker and reuse it;
// after the stack grows to the largest program seen, evaluation
// allocates nothing.
type VM struct {
	stack []float64
}

// NewVM returns an empty VM; the operand stack grows on first use.
func NewVM() *VM { return &VM{} }

// Eval executes the program against one environment vector, whose
// layout must match the terminal set the program was compiled over.
// The result is bit-identical to Tree.Eval on the source tree: same
// operation order, same protected-operator semantics, same root-only
// NaN→0 sanitization.
func (vm *VM) Eval(p *Program, env []float64) float64 {
	if len(p.code) == 0 {
		panic("gp: evaluating an empty program")
	}
	if len(env) < p.terms {
		panic(fmt.Sprintf("gp: environment length %d below program requirement %d", len(env), p.terms))
	}
	if cap(vm.stack) < p.depth {
		vm.stack = make([]float64, p.depth)
	}
	return vm.run(p, env)
}

// run is the dispatch loop; callers have validated env and stack
// capacity.
func (vm *VM) run(p *Program, env []float64) float64 {
	st := vm.stack[:cap(vm.stack)]
	top := -1
	for _, ins := range p.code {
		switch ins.op {
		case opTerm:
			top++
			st[top] = env[ins.idx]
		case opConst:
			top++
			st[top] = ins.val
		case opAdd:
			a, b := st[top], st[top-1]
			top--
			st[top] = a + b
		case opSub:
			a, b := st[top], st[top-1]
			top--
			st[top] = a - b
		case opMul:
			a, b := st[top], st[top-1]
			top--
			st[top] = a * b
		case opDivP:
			a, b := st[top], st[top-1]
			top--
			if math.Abs(b) < protEps {
				st[top] = 1
			} else {
				st[top] = a / b
			}
		case opModP:
			a, b := st[top], st[top-1]
			top--
			if math.Abs(b) < protEps {
				st[top] = 1
			} else {
				st[top] = math.Mod(a, b)
			}
		case opMin:
			a, b := st[top], st[top-1]
			top--
			st[top] = math.Min(a, b)
		case opMax:
			a, b := st[top], st[top-1]
			top--
			st[top] = math.Max(a, b)
		case opNeg:
			st[top] = -st[top]
		case opCall1:
			st[top] = p.ops[ins.idx].F1(st[top])
		default: // opCall2
			a, b := st[top], st[top-1]
			top--
			st[top] = p.ops[ins.idx].F2(a, b)
		}
	}
	v := st[0]
	if math.IsNaN(v) {
		return 0
	}
	return v
}
