package serve

import (
	"context"
	"testing"

	"carbon/internal/core"
	"carbon/internal/telemetry"
)

// BenchmarkStepWithSubscribers is core's BenchmarkEngineStep/bare (same
// market, same config) with the live-event fan-out attached: every
// generation is published into a bounded ring with four SSE-style
// subscribers draining concurrently. Publish is one mutex'd ring write
// and four non-blocking wakes, nothing more.
func BenchmarkStepWithSubscribers(b *testing.B) {
	spec := JobSpec{
		N: 60, M: 5, Instance: 3,
		Seed: 1, Pop: 16, ULEvals: 1 << 30, LLEvals: 1 << 30,
		PreySample: 2, Workers: 1,
	}
	spec = spec.withDefaults()
	mk, err := spec.Market()
	if err != nil {
		b.Fatal(err)
	}
	cfg := spec.Config()
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg

	l := NewEventRing(256, reg.Counter("serve.events_dropped"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const subscribers = 4
	done := make(chan struct{}, subscribers)
	for i := 0; i < subscribers; i++ {
		sub := l.Subscribe(0)
		go func() {
			defer func() { done <- struct{}{} }()
			defer sub.Close()
			for {
				if _, _, err := sub.Next(ctx); err != nil {
					return
				}
			}
		}()
	}
	cfg.Observer = core.FuncObserver{Generation: func(gs core.GenStats) {
		l.Publish(Event{Job: "bench", Type: EventGen, Gen: &gs})
	}}

	e, err := core.NewEngine(mk, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal(e.Err())
		}
	}
	b.StopTimer()
	cancel()
	l.Close()
	for i := 0; i < subscribers; i++ {
		<-done
	}
	solves := reg.Counter("bcpop.lp_solves").Load()
	b.ReportMetric(float64(solves)/float64(b.N), "lp_solves/gen")
}
