package main

import (
	"fmt"
	"os"
	"time"

	"dynatune/internal/cluster"
	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/shard"
	"dynatune/internal/workload"
)

// LogCurvePoint samples the worst live replica log across a deployment at
// one instant of virtual time.
type LogCurvePoint struct {
	AtMs    float64 `json:"at_ms"`
	Entries int     `json:"entries"`
	Bytes   uint64  `json:"bytes"`
}

// MigrationBench is one bulk-move measurement: a snapshot-shipped
// scale-out (1 group → 2, fixed resident set).
type MigrationBench struct {
	Keys        int     `json:"keys"`
	MovedKeys   int     `json:"moved_keys"`
	BulkChunks  int     `json:"bulk_chunks"`
	DrainRounds int     `json:"drain_rounds"`
	ProposeOps  int     `json:"propose_ops"`
	VirtualMs   float64 `json:"virtual_ms"`
	WallMs      float64 `json:"wall_ms"`
}

// CompactionCurve is the BENCH.json section for the snapshot/compaction
// subsystem: log growth with and without a retention policy under the
// same sustained load, plus the cost of a snapshot-shipped migration.
type CompactionCurve struct {
	Policy             []LogCurvePoint `json:"policy"`
	Unbounded          []LogCurvePoint `json:"unbounded"`
	PolicyPeakBytes    uint64          `json:"policy_peak_bytes"`
	UnboundedPeakBytes uint64          `json:"unbounded_peak_bytes"`
	Migration          MigrationBench  `json:"migration"`
}

// runLogCurve drives a fixed sustained load over a 2-group deployment and
// samples the worst replica log every 500ms of virtual time.
func runLogCurve(policy raft.SnapshotPolicy) []LogCurvePoint {
	s := shard.New(shard.Options{
		Groups: 2, NodesPerGroup: 3, Seed: 33,
		Variant: cluster.VariantRaft(), Profile: stable100(),
		Snapshot: policy,
	})
	ramp := workload.Ramp{StartRPS: 1200, StepRPS: 0, StepDuration: 2 * time.Second, Steps: 5}
	lg := shard.NewLoadGen(s, ramp, shard.LoadOptions{Keys: 2048})
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		fmt.Fprintln(os.Stderr, "bench: compaction-curve deployment never elected leaders")
		os.Exit(1)
	}
	s.Run(time.Second)
	lg.Start()
	t0 := s.Now()
	var pts []LogCurvePoint
	for s.Now()-t0 < ramp.Duration() {
		s.Run(500 * time.Millisecond)
		e, b := s.MaxLogStats()
		pts = append(pts, LogCurvePoint{
			AtMs: float64(s.Now()-t0) / float64(time.Millisecond), Entries: e, Bytes: b,
		})
	}
	return pts
}

// runMigrationBench seeds `keys` keys into a 1-group deployment (via a
// direct snapshot restore, standing in for a long-lived resident set) and
// times the live scale-out to 2 groups.
func runMigrationBench(keys int) MigrationBench {
	s := shard.New(shard.Options{
		Groups: 1, NodesPerGroup: 1, Seed: 97,
		Variant: cluster.VariantRaft(), Profile: stable100(),
	})
	fix := kv.NewStore()
	ents := make([]raft.Entry, 0, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("bulk-%06d", i)
		ents = append(ents, raft.Entry{Index: uint64(i + 1), Type: raft.EntryNormal,
			Data: kv.Encode(kv.Command{Op: kv.OpPut, Client: 9, Seq: uint64(i + 1), Key: k, Value: []byte("v-" + k)})})
	}
	fix.Apply(ents)
	snap := fix.MarshalSnapshot()
	if err := s.Group(0).Store(1).RestoreSnapshot(snap, 0); err != nil {
		fmt.Fprintf(os.Stderr, "bench: compaction-curve seed: %v\n", err)
		os.Exit(1)
	}
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		fmt.Fprintln(os.Stderr, "bench: compaction-curve migration never elected a leader")
		os.Exit(1)
	}
	start := time.Now()
	if err := s.AddGroupLive(10 * time.Minute); err != nil {
		fmt.Fprintf(os.Stderr, "bench: compaction-curve migration: %v\n", err)
		os.Exit(1)
	}
	deadline := s.Now() + 20*time.Minute
	for s.Rebalancing() && s.Now() < deadline {
		s.Run(100 * time.Millisecond)
	}
	rb := s.Rebalances()
	if len(rb) != 1 || rb[0].Aborted {
		fmt.Fprintln(os.Stderr, "bench: compaction-curve migration did not complete")
		os.Exit(1)
	}
	st := rb[0]
	return MigrationBench{
		Keys: keys, MovedKeys: st.MovedKeys,
		BulkChunks: st.BulkChunks, DrainRounds: st.DrainRounds, ProposeOps: st.ProposeOps,
		VirtualMs: st.DoneMs - st.StartMs,
		WallMs:    float64(time.Since(start)) / float64(time.Millisecond),
	}
}

func peakBytes(pts []LogCurvePoint) uint64 {
	var peak uint64
	for _, p := range pts {
		if p.Bytes > peak {
			peak = p.Bytes
		}
	}
	return peak
}

// runCompactionCurve builds the compaction_curve BENCH.json section.
func runCompactionCurve() *CompactionCurve {
	cc := &CompactionCurve{
		Policy:    runLogCurve(raft.SnapshotPolicy{EveryEntries: 512, RetainEntries: 64}),
		Unbounded: runLogCurve(raft.SnapshotPolicy{}),
	}
	cc.PolicyPeakBytes = peakBytes(cc.Policy)
	cc.UnboundedPeakBytes = peakBytes(cc.Unbounded)
	fmt.Printf("  log growth over %d samples: policy peak %d B, unbounded peak %d B (%.1fx)\n",
		len(cc.Policy), cc.PolicyPeakBytes, cc.UnboundedPeakBytes,
		float64(cc.UnboundedPeakBytes)/float64(cc.PolicyPeakBytes))
	const migrKeys = 40_000
	mb := runMigrationBench(migrKeys)
	cc.Migration = mb
	fmt.Printf("  migrate %d keys: moved %d, %d propose ops, %d chunks, %d drain rounds, %.0f virtual ms, %.0f wall ms\n",
		mb.Keys, mb.MovedKeys, mb.ProposeOps, mb.BulkChunks, mb.DrainRounds, mb.VirtualMs, mb.WallMs)
	return cc
}
