package cluster

import (
	"testing"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/scenario"
)

// TestStandaloneSteadyStateAllocs pins the standalone runtime's hot path
// as allocation-free: once a 5-node cluster has elected and settled,
// heartbeats, their responses and every timer reset run on pooled step
// jobs and prebuilt timer callbacks.
func TestStandaloneSteadyStateAllocs(t *testing.T) {
	for _, v := range []Variant{VariantRaft(), VariantDynatune(dynatune.Options{})} {
		c := New(Options{N: 5, Seed: 1, Variant: v, Profile: stableNet(100)})
		c.Start()
		if c.WaitLeader(10*time.Second) == nil {
			t.Fatalf("%s: no leader", v.Name)
		}
		c.Run(5 * time.Second)
		if got := testing.AllocsPerRun(20, func() { c.Run(time.Second) }); got != 0 {
			t.Errorf("%s: %v allocations per steady virtual second, want 0", v.Name, got)
		}
	}
}

// BenchmarkFailoverRound measures one round of the paper's Fig. 4 set-up
// as the failover_sim workload runs it: 1000 leader-pause trials each for
// Dynatune and stock Raft on a stable 100 ms network, on one worker.
func BenchmarkFailoverRound(b *testing.B) {
	const trials = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range []Variant{VariantDynatune(dynatune.Options{}), VariantRaft()} {
			opts := Options{N: 5, Seed: 1, Variant: v, Profile: stableNet(100)}
			spec := specFor(opts)
			spec.Measure = scenario.MeasureFailover
			spec.Faults = []scenario.Fault{{Kind: scenario.FaultPauseLeader}}
			spec.Trials, spec.Settle = trials, scenario.Duration(4*time.Second)
			env := opts.ScenarioEnv()
			env.Workers = 1
			if res := mustRun(spec, env).Failover; res.FailedTrials != 0 {
				b.Fatalf("%s: %d failed trials", v.Name, res.FailedTrials)
			}
		}
	}
	b.ReportMetric(float64(2*trials*b.N)/b.Elapsed().Seconds(), "trials/s")
}
