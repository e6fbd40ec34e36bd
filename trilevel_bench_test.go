// Benchmark for the tri-level future-work prototype: one co-evolution
// run of the A→B→customer pricing chain on a mid-size market. Reported
// metrics make the paper's anticipated limitation measurable: the
// bottom level's gap ("gap%") converges CARBON-steadily, while the
// middle level's revenue ("revB", under the final elites against the
// best archived leader prices) carries the noisier, unnormalized
// selection signal. The tri-level run is the depth-1 chain.
package carbon_test

import (
	"testing"

	"carbon/internal/multilevel"
	"carbon/internal/orlib"
)

func BenchmarkTriLevel(b *testing.B) {
	cm, err := multilevel.NewChainMarketFromClass(orlib.Class{N: 100, M: 5}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	gap, revA, revB := 0.0, 0.0, 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := multilevel.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		cfg.PopSize = 12
		cfg.Budget = 1500
		res, err := multilevel.RunChain(cm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap += res.BestGapPct
		revA += res.BestRevenues[0]
		revB += res.BestRevenues[1]
	}
	n := float64(b.N)
	b.ReportMetric(gap/n, "gap%")
	b.ReportMetric(revA/n, "revA")
	b.ReportMetric(revB/n, "revB")
}
