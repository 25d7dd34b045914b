package shard

import (
	"testing"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/workload"
)

// TestRetiredSlotAccessors is the lifecycle-churn regression: a prober
// that cached a GroupID across a decommission must get benign answers
// from every accessor, and the leader-wait helpers must never count a
// retired slot as a serving group.
func TestRetiredSlotAccessors(t *testing.T) {
	s := New(Options{Groups: 4, NodesPerGroup: 3, Seed: 47, Profile: fastProfile()})
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	keys := seedKeys(t, s, 120)
	if err := s.RemoveGroupLive(0); err != nil {
		t.Fatal(err)
	}
	runUntilMigrated(t, s, keys)

	top := GroupID(3)
	if !s.Retired(top) {
		t.Fatalf("Retired(%d) = false after RemoveGroupLive", top)
	}
	if l := s.Leader(top); l != nil {
		t.Fatalf("Leader(%d) = node %d, want nil for a retired slot", top, l.ID())
	}
	// Out-of-range slots are equally benign.
	if s.Leader(GroupID(-1)) != nil || s.Leader(GroupID(99)) != nil {
		t.Fatal("Leader() non-nil for out-of-range slot")
	}
	if s.Retired(GroupID(-1)) || s.Retired(GroupID(99)) {
		t.Fatal("Retired() true for out-of-range slot")
	}
	// HasLeaders/WaitLeaders skip the retired slot: they must report
	// healthy from the survivors alone, without running any further
	// (the retired replicas are paused and can never elect).
	if !s.HasLeaders() {
		t.Fatal("HasLeaders() = false with all serving groups led")
	}
	before := s.Now()
	if !s.WaitLeaders(30 * time.Second) {
		t.Fatal("WaitLeaders stalled on a retired slot")
	}
	if s.Now() != before {
		t.Fatalf("WaitLeaders advanced the sim %v waiting on a retired slot", s.Now()-before)
	}
}

// TestConsolidatedMessageReductionAtG16 pins the per-node-pair batching
// win: at G=16 the shared mesh must carry at least 5x fewer envelopes
// than the logical raft messages a per-group mesh would have sent
// one-per-message.
func TestConsolidatedMessageReductionAtG16(t *testing.T) {
	s := New(Options{Groups: 16, NodesPerGroup: 3, Seed: 7, Profile: fastProfile()})
	ramp := workload.Ramp{StartRPS: 4000, StepRPS: 0, StepDuration: time.Second, Steps: 2}
	lg := NewLoadGen(s, ramp, LoadOptions{Keys: 1024})
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	lg.Start()
	s.Run(ramp.StepDuration * time.Duration(ramp.Steps))

	logical, wire := s.WireStats()
	if logical == 0 || wire == 0 {
		t.Fatalf("WireStats() = (%d, %d), expected traffic", logical, wire)
	}
	if ratio := float64(logical) / float64(wire); ratio < 5 {
		t.Fatalf("batching factor %.2f (logical %d / wire %d), want >= 5 at G=16",
			ratio, logical, wire)
	}
	if lg.TotalCompleted() == 0 {
		t.Fatal("load generator completed nothing")
	}
}

// TestSharedMeshFaultSeversAllGroups pins group-aware fault semantics on
// the consolidated fabric: partitioning one physical node severs that
// replica for EVERY group at once, so all groups it led re-elect onto the
// survivors.
func TestSharedMeshFaultSeversAllGroups(t *testing.T) {
	s := New(Options{Groups: 6, NodesPerGroup: 3, Seed: 13, Profile: fastProfile()})
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		t.Fatal("no leaders")
	}
	victim := raft.ID(1)
	// Mesh node ids are 0-based; raft IDs are 1-based.
	s.PhysLinks().PartitionNode(int(victim)-1, true)
	// A stale partitioned leader stays in StateLeader at its old term, so
	// don't trust WaitLeaders here — run long enough for every group to
	// elect a higher-term leader among the two connected survivors.
	s.Run(10 * time.Second)
	for g := 0; g < s.Groups(); g++ {
		l := s.Leader(GroupID(g))
		if l == nil {
			t.Fatalf("group %d leaderless after re-election window", g)
		}
		if l.ID() == victim {
			t.Fatalf("group %d still led by partitioned node %d — fault did not reach it", g, victim)
		}
	}
	// Heal; the mesh must keep every group serving.
	s.PhysLinks().PartitionNode(int(victim)-1, false)
	if !s.WaitLeaders(30 * time.Second) {
		t.Fatal("groups lost leaders after heal")
	}
}
