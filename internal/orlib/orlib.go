// Package orlib reproduces the paper's §V-A instance setup. The paper
// takes Multidimensional Knapsack Problem (MKP) instances from the
// OR-library, flips every ≤-constraint to ≥ and checks the resulting
// covering instance has a non-empty search space.
//
// The module is offline, so alongside a parser/writer for the genuine
// OR-library text format (drop the real files in and they parse
// unchanged), the package provides a seeded synthetic generator that
// follows the Chu–Beasley conventions the OR-library MKP files were
// built with: integer weights uniform on [1,1000], capacities set as a
// tightness fraction of the column sums, and profits correlated with the
// weight sums. The nine paper classes (n ∈ {100,250,500} ×
// m ∈ {5,10,30}) are exposed as a registry.
package orlib

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"carbon/internal/covering"
	"carbon/internal/rng"
)

// MKP is one Multidimensional Knapsack Problem instance:
// max p·x  s.t.  W·x ≤ cap,  x binary. Opt is the known optimum
// recorded in the file (0 when unknown).
type MKP struct {
	N      int // variables
	M      int // constraints
	Opt    float64
	Profit []float64   // length N
	W      [][]float64 // M×N
	Cap    []float64   // length M
}

// Validate checks internal consistency.
func (p *MKP) Validate() error {
	if p.N <= 0 || p.M <= 0 {
		return fmt.Errorf("orlib: bad dimensions %dx%d", p.N, p.M)
	}
	if len(p.Profit) != p.N || len(p.Cap) != p.M || len(p.W) != p.M {
		return errors.New("orlib: slice lengths disagree with dimensions")
	}
	for i, row := range p.W {
		if len(row) != p.N {
			return fmt.Errorf("orlib: row %d has %d weights, want %d", i, len(row), p.N)
		}
	}
	return nil
}

// ParseMKP reads the OR-library multi-problem MKP format
// (mknap/mknapcb): a problem count, then for each problem a header
// "n m opt" followed by n profits, m×n weights and m capacities.
// Whitespace (including newlines) is insignificant.
func ParseMKP(r io.Reader) ([]MKP, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	sc.Split(bufio.ScanWords)
	next := func() (float64, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return 0, err
			}
			return 0, io.ErrUnexpectedEOF
		}
		return strconv.ParseFloat(sc.Text(), 64)
	}
	nextInt := func() (int, error) {
		v, err := next()
		if err != nil {
			return 0, err
		}
		if v != math.Trunc(v) {
			return 0, fmt.Errorf("orlib: expected integer, got %v", v)
		}
		return int(v), nil
	}

	count, err := nextInt()
	if err != nil {
		return nil, fmt.Errorf("orlib: reading problem count: %w", err)
	}
	if count <= 0 || count > 1000 {
		return nil, fmt.Errorf("orlib: implausible problem count %d", count)
	}
	problems := make([]MKP, 0, count)
	for pi := 0; pi < count; pi++ {
		var p MKP
		if p.N, err = nextInt(); err != nil {
			return nil, fmt.Errorf("orlib: problem %d: n: %w", pi, err)
		}
		if p.M, err = nextInt(); err != nil {
			return nil, fmt.Errorf("orlib: problem %d: m: %w", pi, err)
		}
		if p.Opt, err = next(); err != nil {
			return nil, fmt.Errorf("orlib: problem %d: opt: %w", pi, err)
		}
		if p.N <= 0 || p.M <= 0 || p.N > 1_000_000 || p.M > 10_000 {
			return nil, fmt.Errorf("orlib: problem %d: implausible size %dx%d", pi, p.N, p.M)
		}
		p.Profit = make([]float64, p.N)
		for j := range p.Profit {
			if p.Profit[j], err = next(); err != nil {
				return nil, fmt.Errorf("orlib: problem %d: profit %d: %w", pi, j, err)
			}
		}
		p.W = make([][]float64, p.M)
		for i := range p.W {
			p.W[i] = make([]float64, p.N)
			for j := range p.W[i] {
				if p.W[i][j], err = next(); err != nil {
					return nil, fmt.Errorf("orlib: problem %d: weight (%d,%d): %w", pi, i, j, err)
				}
			}
		}
		p.Cap = make([]float64, p.M)
		for i := range p.Cap {
			if p.Cap[i], err = next(); err != nil {
				return nil, fmt.Errorf("orlib: problem %d: capacity %d: %w", pi, i, err)
			}
		}
		problems = append(problems, p)
	}
	return problems, nil
}

// WriteMKP emits problems in the same OR-library format ParseMKP reads.
func WriteMKP(w io.Writer, problems []MKP) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(problems))
	for _, p := range problems {
		if err := p.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(bw, "%d %d %s\n", p.N, p.M, trimFloat(p.Opt))
		writeVec(bw, p.Profit)
		for _, row := range p.W {
			writeVec(bw, row)
		}
		writeVec(bw, p.Cap)
	}
	return bw.Flush()
}

func writeVec(w *bufio.Writer, v []float64) {
	for j, x := range v {
		if j > 0 {
			if j%10 == 0 {
				w.WriteByte('\n')
			} else {
				w.WriteByte(' ')
			}
		}
		w.WriteString(trimFloat(x))
	}
	w.WriteByte('\n')
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// ToCovering applies the paper's transformation: every ≤-constraint of
// the MKP becomes a ≥-constraint, profits become costs, producing
// min p·x s.t. W·x ≥ cap over binary x. It errors when the result has an
// empty search space (the paper discards such instances).
func (p *MKP) ToCovering() (*covering.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in, err := covering.New(p.Profit, p.W, p.Cap)
	if err != nil {
		return nil, err
	}
	if !in.FullSelectionFeasible() {
		return nil, errors.New("orlib: transformed instance has an empty search space")
	}
	return in, nil
}

// GenerateMKP builds a synthetic MKP following the Chu–Beasley
// conventions: integer weights uniform on [1,1000], capacities
// tightness·Σⱼwᵢⱼ, profits Σᵢwᵢⱼ/m + U[0,500] (correlated with weight).
// tightness must lie in (0,1).
func GenerateMKP(r *rng.Rand, n, m int, tightness float64) (MKP, error) {
	if n <= 0 || m <= 0 {
		return MKP{}, fmt.Errorf("orlib: bad dimensions %dx%d", n, m)
	}
	if tightness <= 0 || tightness >= 1 {
		return MKP{}, fmt.Errorf("orlib: tightness %v outside (0,1)", tightness)
	}
	p := MKP{N: n, M: m}
	p.W = make([][]float64, m)
	rowSums := make([]float64, m)
	colSums := make([]float64, n)
	for i := 0; i < m; i++ {
		p.W[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			w := float64(r.IntRange(1, 1000))
			p.W[i][j] = w
			rowSums[i] += w
			colSums[j] += w
		}
	}
	p.Cap = make([]float64, m)
	for i := 0; i < m; i++ {
		p.Cap[i] = math.Floor(tightness * rowSums[i])
		if p.Cap[i] < 1 {
			p.Cap[i] = 1
		}
	}
	p.Profit = make([]float64, n)
	for j := 0; j < n; j++ {
		p.Profit[j] = math.Floor(colSums[j]/float64(m) + 500*r.Float64())
		if p.Profit[j] < 1 {
			p.Profit[j] = 1
		}
	}
	return p, nil
}

// Class identifies one of the paper's nine instance classes.
type Class struct {
	N int // decision variables ("# Variables" in Tables III/IV)
	M int // constraints ("# Constraints")
}

func (c Class) String() string { return fmt.Sprintf("n%d_m%d", c.N, c.M) }

// PaperClasses are the nine classes of §V-A in table order.
var PaperClasses = []Class{
	{100, 5}, {100, 10}, {100, 30},
	{250, 5}, {250, 10}, {250, 30},
	{500, 5}, {500, 10}, {500, 30},
}

// DefaultTightness is the capacity fraction used for generated
// instances; 0.25 is the canonical Chu–Beasley setting.
const DefaultTightness = 0.25

// GenerateCovering produces a covering instance of the given class with
// a deterministic per-(class, index) seed, applying the MKP→covering
// flip and the non-empty-search-space guarantee.
func GenerateCovering(cl Class, index int) (*covering.Instance, error) {
	seed := uint64(cl.N)*1_000_003 + uint64(cl.M)*10_007 + uint64(index)*101 + 12345
	r := rng.New(seed)
	mkp, err := GenerateMKP(r, cl.N, cl.M, DefaultTightness)
	if err != nil {
		return nil, err
	}
	return mkp.ToCovering()
}
