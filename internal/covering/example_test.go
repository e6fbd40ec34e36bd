package covering_test

import (
	"fmt"

	"carbon/internal/covering"
	"carbon/internal/gp"
)

// A three-bundle market: bundle 0 covers both services for 3; bundles 1
// and 2 cover one service each for 2. The LP bound, the classic greedy
// and the Eq. 1 gap in a few lines.
func Example() {
	in, err := covering.New(
		[]float64{3, 2, 2},
		[][]float64{
			{1, 1, 0},
			{1, 0, 1},
		},
		[]float64{1, 1},
	)
	if err != nil {
		panic(err)
	}
	rx, err := in.Relax()
	if err != nil {
		panic(err)
	}
	res := in.ChvatalGreedy()
	fmt.Printf("LP bound %.0f, greedy cost %.0f, gap %.0f%%\n",
		rx.LB, res.Cost, covering.Gap(res.Cost, rx.LB))

	// The same greedy driven by a GP scoring tree over Table I,
	// compiled and run over the items.
	set := covering.TableISet()
	prog, err := gp.Compile(set, gp.MustParse(set, "(% (* q d) c)"))
	if err != nil {
		panic(err)
	}
	scores := make([]float64, in.M())
	covering.ScoreProgramInto(in, rx, gp.NewVM(), prog, scores)
	out := in.GreedyByScore(scores, true)
	fmt.Printf("tree-driven cost %.0f\n", out.Cost)
	// Output:
	// LP bound 3, greedy cost 3, gap 0%
	// tree-driven cost 3
}
