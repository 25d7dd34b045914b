package shard

import (
	"fmt"
	"testing"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/scenario"
)

// seedBulk loads n keys directly into every replica of group 0 via a
// snapshot restore — the fixture stands in for a long-lived deployment
// whose resident set is far too large to replay through the client path.
func seedBulk(t *testing.T, s *Cluster, n int) {
	t.Helper()
	fix := kv.NewStore()
	ents := make([]raft.Entry, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("bulk-%06d", i)
		ents = append(ents, raft.Entry{Index: uint64(i + 1), Type: raft.EntryNormal,
			Data: kv.Encode(kv.Command{Op: kv.OpPut, Client: 9, Seq: uint64(i + 1), Key: k, Value: []byte("v-" + k)})})
	}
	fix.Apply(ents)
	snap := fix.MarshalSnapshot()
	for i := 1; i <= s.opts.NodesPerGroup; i++ {
		if err := s.Group(0).Store(raft.ID(i)).RestoreSnapshot(snap, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// runScaleOut seeds `total` keys into a single group, scales out to two,
// and returns the finished migration's stats.
func runScaleOut(t *testing.T, total int) scenario.RebalanceStats {
	t.Helper()
	s := New(Options{Groups: 1, NodesPerGroup: 1, Seed: 97, Profile: fastProfile()})
	seedBulk(t, s, total)
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		t.Fatal("no leader")
	}
	if err := s.AddGroupLive(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	deadline := s.Now() + 20*time.Minute
	for s.Rebalancing() {
		if s.Now() >= deadline {
			t.Fatalf("migration did not finish; phase %d, queue %d", s.migr.phase, len(s.migr.queue))
		}
		s.Run(100 * time.Millisecond)
	}
	rb := s.Rebalances()
	if len(rb) != 1 {
		t.Fatalf("want 1 rebalance, got %d", len(rb))
	}
	st := rb[0]
	if st.Aborted {
		t.Fatal("migration aborted")
	}
	if st.ProposeErrors != 0 {
		t.Fatalf("migration had %d propose errors", st.ProposeErrors)
	}
	// The move must end fully converged and clean: destination owns its
	// share, sources dropped their stale copies.
	for g := 0; g < s.Groups(); g++ {
		store, ok := s.leaderStore(GroupID(g))
		if !ok {
			t.Fatalf("group %d lost its leader post-migration", g)
		}
		for _, k := range store.SortedKeys() {
			if s.Router().Route(k) != GroupID(g) {
				t.Fatalf("group %d still holds %q owned by %d", g, k, s.Router().Route(k))
			}
		}
	}
	return st
}

// TestSnapshotShipBeatsKeyStreamFiveX is the migration efficiency bound:
// bulk-moving a >=100k-key span by snapshot-shipped span chunks must
// replicate at most one command per five moved keys. Streaming the span
// key by key pays at least one command per moved key, so this is a >=5x
// margin over it.
func TestSnapshotShipBeatsKeyStreamFiveX(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk fixture is large")
	}
	const total = 240_000

	ship := runScaleOut(t, total)

	if ship.MovedKeys < 100_000 {
		t.Fatalf("moved span too small for the bound: %d keys", ship.MovedKeys)
	}
	if ship.BulkChunks == 0 {
		t.Fatal("snapshot-ship replicated no span chunks")
	}
	if ship.ProposeOps == 0 {
		t.Fatal("missing propose count")
	}
	if limit := ship.MovedKeys / 5; ship.ProposeOps > limit {
		t.Fatalf("snapshot-ship replicated %d commands for %d moved keys, want <= %d",
			ship.ProposeOps, ship.MovedKeys, limit)
	}
	t.Logf("moved %d keys: %d replicated commands (%d chunks)",
		ship.MovedKeys, ship.ProposeOps, ship.BulkChunks)
}
