// Forest compiler and lane runner (DESIGN.md §5j).
//
// A Forest is any number of trees compiled into one hash-consed
// program: every distinct subtree of the whole set — same operator,
// same constant bits, same operands — becomes one node, computed once
// per run however many trees share it. Nodes are stored children
// first (postfix, in the order Tree.Eval first reaches them), and each
// node's lanes live in a value slot that is handed to a later node once
// the node's last reader has run. The runner executes the nodes over
// lanes: every slot is a vector with one value per lane, so one
// dispatch per node serves a whole block of environments (the
// scorer's items), and each terminal is either a per-lane vector or a
// scalar broadcast to all lanes. When a node that is some tree's root
// has been computed, its lanes are added into that root's output row.
// The VM owns the slots and reuses them, so steady-state evaluation
// allocates nothing.
//
// A Program is the one-tree forest: Compile is a thin wrapper over the
// same compiler, and AddRoots runs either.
//
// Determinism: each lane executes the same float64 operations on the
// same operands as Tree.Eval on its own environment — Table I
// operators are specialized to dedicated opcodes whose bodies are
// copies of the builtin functions (same protected-division epsilon and
// fallback; modulo runs the very modLanes kernel Mod.F2 runs), custom
// operators fall back to calling the Op function itself, and
// intermediate NaN/±Inf values propagate untouched. Sharing a node
// changes nothing: an operator is a pure function of its operands'
// bits, so every reader of a node sees the value its own tree would
// have computed. Only the value a root adds to its output row
// collapses NaN to 0, exactly like Eval; a parent reading the same
// node sees the raw value. Lanes never read
// each other's values. Each row therefore receives, bit for bit, what
// adding Tree.Eval to it would give (FuzzForestEval proves it
// differentially against the tree walker, which is the runner's test
// oracle).
//
// On amd64 with AVX2 and FMA, add, sub, mul, protected division,
// protected modulo and the root accumulate run as assembly kernels over
// groups of four lanes (lanes_amd64.s), and the Go loops finish each
// node's last len mod 4 lanes. Every lane of a kernel is the same
// sequence of correctly rounded IEEE operations on the same operands as
// the Go loop — VROUNDPD $3 is trunc, VFNMADD231PD is math.FMA's one
// rounding — so it gives the loop's bits, NaN payloads included; a mod
// group with a lane off modLanes' fused path runs modLanes itself. The
// Go loops are the only path elsewhere and the kernels' test oracle
// (TestLaneKernelsMatchGoLoops). min, max, neg and custom operators
// stay in Go: VMINPD is not math.Min on NaN or ±0.
package gp

import (
	"fmt"
	"math"
	"reflect"
)

// opcode selects one node's operation. Table I operators (plus the
// extension builtins) get dedicated opcodes so the hot loop never
// makes an indirect call; opCall1/opCall2 cover custom operators.
type opcode uint8

const (
	opConst opcode = iota // val in every lane
	opTerm                // env[idx]
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

// fnode is one forest node. While the forest is being hash-consed, a
// and b are the operand node ids (a is the left operand, -1 when
// absent); once compiled they are the operands' value slots, and dst
// is the node's own slot. row is the output row the node's lanes go to
// when it is some tree's root, else -1.
type fnode struct {
	op   opcode
	idx  uint8 // terminal index, or operator index
	val  float64
	a, b int32
	dst  int32
	row  int32
}

// Forest is a set of trees compiled into one hash-consed program. The
// zero value is an empty forest; Compile fills it and may be called
// again to recompile in place, reusing every buffer. A compiled Forest
// is read-only, so any number of VMs may run it concurrently.
type Forest struct {
	code  []fnode
	ops   []Op  // the compile set's operators, for the opCall fallback
	terms int   // required environment length (len(set.Terms) at compile)
	slots int   // value slots the runner needs
	rows  int   // distinct roots
	nops  int   // operator nodes
	root  []int // per tree: its output row, or -1 when it failed Check
	errs  []error

	// Compile scratch.
	opc   []opcode
	table []int32 // open-addressing hash table of node ids, -1 = empty
	stack []int32
	last  []int32
	free  []int32
}

// builtin1/builtin2 map an Op function's code pointer to its dedicated
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

// Compile hash-conses trees into the forest, replacing what it held.
// Each tree is Checked first: one that fails keeps its error (Row
// reports it) and contributes no nodes, and the others still compile.
// Identical trees share one root, hence one output row; rows are
// numbered in the order their first tree appears.
func (f *Forest) Compile(s *Set, trees []Tree) {
	f.ops, f.terms = s.Ops, len(s.Terms)
	f.root, f.errs = f.root[:0], f.errs[:0]
	for _, t := range trees {
		f.errs = append(f.errs, t.Check(s))
	}
	f.opc = f.opc[:0]
	for _, op := range s.Ops {
		var oc opcode
		var ok bool
		if op.Arity == 1 {
			if oc, ok = builtin1[reflect.ValueOf(op.F1).Pointer()]; !ok {
				oc = opCall1
			}
		} else {
			if oc, ok = builtin2[reflect.ValueOf(op.F2).Pointer()]; !ok {
				oc = opCall2
			}
		}
		f.opc = append(f.opc, oc)
	}
	// The table keeps its size from the last compile (it holds twice
	// the distinct nodes at most, so it stays small for a population
	// of shared trees) and doubles as the forest outgrows it.
	f.table = grow(f.table, max(64, len(f.table)))
	for i := range f.table {
		f.table[i] = -1
	}
	f.code, f.nops = f.code[:0], 0

	// Intern every node in Tree.Eval's order: the prefix encoding
	// scanned backwards, so the left operand is on top of the stack.
	for ti, t := range trees {
		if f.errs[ti] != nil {
			f.root = append(f.root, -1)
			continue
		}
		st := f.stack[:0]
		for i := len(t.nodes) - 1; i >= 0; i-- {
			n := t.nodes[i]
			k := fnode{idx: n.idx, a: -1, b: -1, row: -1}
			switch n.kind {
			case kTerm:
				k.op = opTerm
			case kConst:
				k.op, k.idx, k.val = opConst, 0, n.val
			default:
				k.op = f.opc[n.idx]
				top := len(st) - 1
				k.a = st[top]
				if s.Ops[n.idx].Arity == 2 {
					k.b = st[top-1]
					st = st[:top]
				}
				st = st[:len(st)-1]
			}
			st = append(st, f.intern(k))
		}
		f.stack = st
		f.root = append(f.root, int(st[0]))
	}

	// Give each distinct root its output row.
	f.rows = 0
	for ti, id := range f.root {
		if id < 0 {
			continue
		}
		n := &f.code[id]
		if n.row < 0 {
			n.row = int32(f.rows)
			f.rows++
		}
		f.root[ti] = int(n.row)
	}
	f.assignSlots()
}

// intern returns the id of the node equal to k, appending k when the
// forest has none. The key is the opcode, the operator or terminal
// index, the constant's bits and the operand ids.
func (f *Forest) intern(k fnode) int32 {
	bits := math.Float64bits(k.val)
	mask := uint64(len(f.table) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		id := f.table[i]
		if id < 0 {
			id = int32(len(f.code))
			f.table[i] = id
			f.code = append(f.code, k)
			if k.a >= 0 {
				f.nops++
			}
			if 2*len(f.code) > len(f.table) {
				f.rehash()
			}
			return id
		}
		if n := &f.code[id]; n.op == k.op && n.idx == k.idx && math.Float64bits(n.val) == bits &&
			n.a == k.a && n.b == k.b {
			return id
		}
	}
}

// hash mixes a node's key.
func (k *fnode) hash() uint64 {
	const mul = 0x9e3779b97f4a7c15
	h := (uint64(k.op)<<8 | uint64(k.idx) ^ math.Float64bits(k.val)) * mul
	h = (h ^ uint64(uint32(k.a))<<32 ^ uint64(uint32(k.b))) * mul
	return h ^ h>>32
}

// rehash doubles the table and reinserts every node.
func (f *Forest) rehash() {
	f.table = make([]int32, 2*len(f.table))
	for i := range f.table {
		f.table[i] = -1
	}
	mask := uint64(len(f.table) - 1)
	for id := range f.code {
		i := f.code[id].hash() & mask
		for f.table[i] >= 0 {
			i = (i + 1) & mask
		}
		f.table[i] = int32(id)
	}
}

// assignSlots gives every node a value slot, reusing the slot of any
// node whose last reader has already run, and rewrites the operand ids
// into slots. A node may take the slot of an operand it reads last:
// every operation reads a lane's operands before writing that lane. A
// node no other node reads is a root whose value goes to its row at
// once, so its slot is free again for the next node.
func (f *Forest) assignSlots() {
	f.last = grow(f.last, len(f.code))
	for i := range f.last {
		f.last[i] = -1
	}
	for i, n := range f.code {
		if n.a >= 0 {
			f.last[n.a] = int32(i)
		}
		if n.b >= 0 {
			f.last[n.b] = int32(i)
		}
	}
	free := f.free[:0]
	f.slots = 0
	for i := range f.code {
		n := &f.code[i]
		if n.a >= 0 {
			a := n.a
			n.a = f.code[a].dst
			if f.last[a] == int32(i) {
				free = append(free, n.a)
			}
		}
		if n.b >= 0 {
			b := n.b
			n.b = f.code[b].dst
			if f.last[b] == int32(i) && n.b != n.a {
				free = append(free, n.b)
			}
		}
		if top := len(free) - 1; top >= 0 {
			n.dst, free = free[top], free[:top]
		} else {
			n.dst = int32(f.slots)
			f.slots++
		}
		if f.last[i] < 0 {
			free = append(free, n.dst)
		}
	}
	f.free = free
}

// grow returns s resized to n, reallocating only when cap(s) < n.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Row returns tree t's output row, or the error Check gave it.
func (f *Forest) Row(t int) (int, error) {
	if err := f.errs[t]; err != nil {
		return -1, err
	}
	return f.root[t], nil
}

// Rows returns the number of distinct roots: the number of output
// rows a run writes, and the number of distinct compiled trees.
func (f *Forest) Rows() int { return f.rows }

// OpNodes returns the number of distinct operator nodes — the
// operations one run performs per lane, terminals and constants aside.
func (f *Forest) OpNodes() int { return f.nops }

// Program is a compiled tree: the one-tree forest. A Program is
// immutable once Compile returns, so any number of VMs may run it
// concurrently.
type Program struct {
	f Forest
}

// Forest returns the program as a one-tree forest, whose only row is
// the tree's.
func (p *Program) Forest() *Forest { return &p.f }

// Compile lowers a validated tree to a program. It rejects anything
// Check rejects (including trees over MaxNodes), so a compiled program
// can never index outside an environment of len(s.Terms).
func Compile(s *Set, t Tree) (*Program, error) {
	p := &Program{}
	if err := p.Compile(s, t); err != nil {
		return nil, err
	}
	return p, nil
}

// Compile recompiles the program in place, reusing its buffers, so a
// program recompiled once per generation allocates nothing in steady
// state. The program must not be running concurrently, and after an
// error it is empty.
func (p *Program) Compile(s *Set, t Tree) error {
	one := [1]Tree{t}
	p.f.Compile(s, one[:])
	return p.f.errs[0]
}

// VM runs compiled forests over lanes. It owns the value slots, so it
// is not safe for concurrent use — create one per worker and reuse
// it; after the slots grow to the largest slots × width seen,
// evaluation allocates nothing.
type VM struct {
	slots []float64
}

// NewVM returns an empty VM; the slots grow on first use.
func NewVM() *VM { return &VM{} }

// Term binds one terminal across the lanes of a run: V holds one value
// per lane, or, when V is nil, S is broadcast to every lane.
type Term struct {
	V []float64
	S float64
}

// AddRoots runs the forest once over n lanes, lane i reading terminal
// t as env[t].V[i] (or the broadcast env[t].S), and adds each distinct
// root's lanes into its row: row r is acc[r*stride : r*stride+n]. env
// must bind every terminal of the set the forest was compiled over.
// Each lane computes the same operations as Tree.Eval on that lane's
// environment, with the same protected-operator semantics, and the
// NaN→0 collapse applies to the added value only, so calling AddRoots
// once per service on zeroed rows sums, lane by lane and in call order,
// exactly what Tree.Eval returns for each of the row's trees.
func (vm *VM) AddRoots(f *Forest, env []Term, n int, acc []float64, stride int) {
	if len(env) < f.terms {
		panic(fmt.Sprintf("gp: environment length %d below program requirement %d", len(env), f.terms))
	}
	for t := range env[:f.terms] {
		if v := env[t].V; v != nil && len(v) < n {
			panic(fmt.Sprintf("gp: terminal %d has %d lanes, want %d", t, len(v), n))
		}
	}
	if f.rows > 0 && len(acc) < (f.rows-1)*stride+n {
		panic(fmt.Sprintf("gp: output holds %d values, want %d rows of stride %d", len(acc), f.rows, stride))
	}
	vm.slots = grow(vm.slots, f.slots*n)
	st := vm.slots
	for i := range f.code {
		ins := &f.code[i]
		d := st[int(ins.dst)*n:][:n]
		switch ins.op {
		case opTerm:
			if t := &env[ins.idx]; t.V != nil {
				copy(d, t.V[:n])
			} else {
				fill(d, t.S)
			}
		case opConst:
			fill(d, ins.val)
		case opNeg:
			x := st[int(ins.a)*n:][:len(d)]
			for l, v := range x {
				d[l] = -v
			}
		case opCall1:
			fn, x := f.ops[ins.idx].F1, st[int(ins.a)*n:][:len(d)]
			for l, v := range x {
				d[l] = fn(v)
			}
		default:
			// a is the left operand, as in Tree.Eval.
			binary(ins.op, f.ops, ins.idx, d, st[int(ins.a)*n:][:n], st[int(ins.b)*n:][:n])
		}
		if ins.row < 0 {
			continue
		}
		addRoot(acc[int(ins.row)*stride:][:len(d)], d)
	}
}

// addRoot adds v into o lane by lane, a NaN lane adding 0.
func addRoot(o, v []float64) {
	if laneKernels && len(v) >= 4 {
		k := kernelAccumulate(o, v)
		o, v = o[k:], v[k:]
	}
	for l, x := range v {
		if x != x {
			x = 0
		}
		o[l] += x
	}
}

// laneKernels picks the path binary and addRoot take: the assembly
// kernels (lanes_amd64.s) over whole groups of four lanes, with the Go
// loops finishing the tail, or the Go loops alone. Both give the same
// bits. It is set once at init from the CPU probe; tests flip it to
// compare the two.
var laneKernels = hasLaneKernels

// binary computes d = op(a, b) lane by lane. d may alias a or b: each
// lane's operands are read before the lane is written.
func binary(op opcode, ops []Op, idx uint8, d, a, b []float64) {
	d, b = d[:len(a)], b[:len(a)]
	if laneKernels && len(a) >= 4 {
		k := kernelBinary(op, d, a, b)
		d, a, b = d[k:], a[k:], b[k:]
	}
	switch op {
	case opAdd:
		for l, av := range a {
			d[l] = av + b[l]
		}
	case opSub:
		for l, av := range a {
			d[l] = av - b[l]
		}
	case opMul:
		for l, av := range a {
			d[l] = av * b[l]
		}
	case opDivP:
		for l, av := range a {
			if bv := b[l]; math.Abs(bv) < protEps {
				d[l] = 1
			} else {
				d[l] = av / bv
			}
		}
	case opModP:
		modLanes(d, a, b)
	case opMin:
		for l, av := range a {
			d[l] = math.Min(av, b[l])
		}
	case opMax:
		for l, av := range a {
			d[l] = math.Max(av, b[l])
		}
	default: // opCall2
		fn := ops[idx].F2
		for l, av := range a {
			d[l] = fn(av, b[l])
		}
	}
}

// fill sets every element of dst to v.
func fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}
