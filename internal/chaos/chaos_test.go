package chaos

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dynatune/internal/scenario"
)

// quickBudget keeps storm tests fast: a short two-step ramp, tight fault
// durations, no reordering coin flips removed (left at default).
func quickBudget() Budget {
	b := DefaultBudget()
	b.Steps = 2
	b.StepDuration = scenario.Duration(time.Second)
	b.MaxDur = scenario.Duration(time.Second)
	return b
}

func TestStormSeedStableAndPositive(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := StormSeed(42, i)
		if s < 0 {
			t.Fatalf("StormSeed(42, %d) = %d, want non-negative", i, s)
		}
		if seen[s] {
			t.Fatalf("StormSeed(42, %d) = %d collides with an earlier storm", i, s)
		}
		seen[s] = true
		if s != StormSeed(42, i) {
			t.Fatalf("StormSeed(42, %d) unstable across calls", i)
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	b := DefaultBudget()
	a1, err := Schedule(b, 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Schedule(b, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same (budget, seed) sampled different schedules")
	}
	other, err := Schedule(b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1.Faults, other.Faults) {
		t.Fatalf("seeds 99 and 100 sampled identical fault schedules")
	}
}

func TestScheduleSamplesValidSpecs(t *testing.T) {
	b := DefaultBudget()
	for seed := int64(1); seed <= 25; seed++ {
		spec, err := Schedule(b, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Schedule already validates; pin the budget's structural promises.
		n := 0
		for _, f := range spec.Faults {
			if f.Kind == scenario.FaultAddGroup || f.Kind == scenario.FaultRemoveGroup {
				continue
			}
			n++
		}
		if n < b.MinFaults || n > b.MaxFaults {
			t.Fatalf("seed %d: %d non-rebalance faults outside budget [%d,%d]", seed, n, b.MinFaults, b.MaxFaults)
		}
		degrades := 0
		for _, f := range spec.Faults {
			if f.Kind == scenario.FaultDegradeLinks {
				degrades++
			}
		}
		if degrades > 1 {
			t.Fatalf("seed %d: %d degrade-links faults, want at most one per storm", seed, degrades)
		}
		for i := 1; i < len(spec.Faults); i++ {
			if spec.Faults[i].At < spec.Faults[i-1].At {
				t.Fatalf("seed %d: schedule not chronological", seed)
			}
		}
		if spec.Invariants == nil {
			t.Fatalf("seed %d: storm spec left the invariant suite unarmed", seed)
		}
	}
}

// TestRunStormsWorkerCountInvariance is the campaign-level determinism
// acceptance: the same (budget, seed) must produce a byte-identical
// report whether the storms run on one worker or eight.
func TestRunStormsWorkerCountInvariance(t *testing.T) {
	b := quickBudget()
	one, err := RunStorms(b, 4, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunStorms(b, 4, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	j8, err := json.Marshal(eight)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j8) {
		t.Fatalf("worker count leaked into the campaign report:\n 1 worker: %s\n 8 workers: %s", j1, j8)
	}
}

// TestStormShrinksToMinimalReproducer is the shrinking acceptance: a
// storm over a deliberately weakened invariant (an unattainable 1ms
// unavailability bound) must trip, shrink to a reproducer of at most
// three faults, and that reproducer must still fail on replay.
func TestStormShrinksToMinimalReproducer(t *testing.T) {
	b := quickBudget()
	b.Invariants = &scenario.Invariants{MaxUnavail: scenario.Duration(time.Millisecond)}
	rep, err := RunStorms(b, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatalf("no storm tripped a 1ms unavailability bound under leader faults")
	}
	for _, v := range rep.Verdicts {
		if v.OK {
			continue
		}
		if v.Reproducer == nil {
			t.Fatalf("storm %d failed without a reproducer", v.Storm)
		}
		if v.ShrunkFaults > 3 {
			t.Fatalf("storm %d shrank to %d faults, want <= 3", v.Storm, v.ShrunkFaults)
		}
		if len(v.ShrunkViolations) == 0 {
			t.Fatalf("storm %d: shrunk spec recorded no violations", v.Storm)
		}
		vs, err := Replay(*v.Reproducer, 1)
		if err != nil {
			t.Fatalf("storm %d: reproducer replay failed: %v", v.Storm, err)
		}
		if len(vs) == 0 {
			t.Fatalf("storm %d: shrunk reproducer no longer trips on replay", v.Storm)
		}
		return // one failing storm fully verified is the acceptance
	}
}

func TestBudgetValidateRejectsNonsense(t *testing.T) {
	bad := []Budget{
		{Groups: 1, NodesPerGroup: 2}, // sub-quorum group
		{MinFaults: 5, MaxFaults: 2},  // inverted count range
		{WindowFrac: 1.5},             // window past the ramp
		{MinDur: scenario.Duration(2 * time.Second), MaxDur: scenario.Duration(time.Second)}, // inverted durations
		{Rebalance: 2}, // not a probability
		{Kinds: map[string]float64{"meteor-strike": 1}},              // unknown kind
		{Kinds: map[string]float64{"crash-node": -1}},                // negative weight
		{Persist: false, Kinds: map[string]float64{"crash-node": 1}}, // crash without persistence
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad budget %d validated: %+v", i, b)
		}
	}
	if err := DefaultBudget().Validate(); err != nil {
		t.Fatalf("default budget invalid: %v", err)
	}
}

func TestCrashDropsFromDefaultPoolWithoutPersist(t *testing.T) {
	b := DefaultBudget()
	b.Persist = false
	if w := b.weightOf(scenario.FaultCrashNode); w != 0 {
		t.Fatalf("crash-node weight %v on a non-persisted default pool, want 0", w)
	}
	// Sampled schedules must honor it.
	for seed := int64(1); seed <= 10; seed++ {
		spec, err := Schedule(b, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range spec.Faults {
			if f.Kind == scenario.FaultCrashNode {
				t.Fatalf("seed %d: non-persisted storm sampled a crash-node fault", seed)
			}
		}
	}
}
