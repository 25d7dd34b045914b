package shard

import (
	"fmt"
	"time"

	"dynatune/internal/cluster"
	"dynatune/internal/kv"
	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/scenario"
	"dynatune/internal/sim"
)

// Options configure a sharded Cluster.
type Options struct {
	// Groups is the number of independent Raft groups (default 4).
	Groups int
	// NodesPerGroup is each group's replication factor (default 3).
	NodesPerGroup int
	Seed          int64
	// Variant selects the system under test per group; every group gets
	// its own tuner instances (one per node, as in the single-group
	// testbed).
	Variant cluster.Variant
	// Profile is the shared WAN schedule: every group's links follow the
	// same netsim profile, modelling shards co-deployed on one network.
	Profile netsim.Profile
	// Replicas is the router's virtual-node count (0 = DefaultReplicas).
	Replicas int
	// Cost overrides the per-node CPU cost model (zero = calibrated
	// default).
	Cost cluster.CostModel
	// Persist gives every node in every group a durable store, enabling
	// crash faults (group-addressed crash-node) against sharded runs. The
	// persister survives the crash; the rebuilt node replays from it.
	Persist bool

	// Snapshot arms the per-node automatic snapshot policy in every group:
	// each node snapshots its kv store and truncates its log whenever the
	// live tail outgrows the thresholds (see raft.SnapshotPolicy). Zero
	// disables it.
	Snapshot raft.SnapshotPolicy
	// SnapshotChunk bounds one streamed InstallSnapshot message; 0 keeps
	// single-envelope transfers.
	SnapshotChunk int

	// Fabric tunes the consolidated transport every group rides (tick
	// grids, batch window); zero fields take cluster.Fabric defaults.
	Fabric cluster.FabricOptions
}

func (o Options) withDefaults() Options {
	if o.Groups == 0 {
		o.Groups = 4
	}
	if o.NodesPerGroup == 0 {
		o.NodesPerGroup = 3
	}
	// Seed 0 is preserved as an explicit seed, consistent with the sweep
	// layer's UnitSeed. (It used to alias seed 1, which silently folded
	// seed-0 campaign cells onto their seed-1 neighbours.)
	return o
}

// Cluster is a sharded deployment: G Raft groups sharing one virtual
// clock and one physical mesh, with a consistent-hash router in front.
// Each group is a full cluster.Cluster — own kv stores, own tuners, own
// leader — so failures and tuning in one group never touch another.
//
// The group set is dynamic: AddGroupLive / RemoveGroupLive (migrate.go)
// grow or shrink it mid-run with a drain → cutover → serve migration.
// Retired groups keep their slot in the group table (paused) so GroupIDs
// stay stable; Groups() counts the serving groups, GroupSlots() the table.
type Cluster struct {
	opts   Options
	eng    *sim.Engine
	router *Router
	groups []*cluster.Cluster

	// fabric is the consolidation layer all groups share: one physical
	// mesh, one tick driver per node, per-node-pair envelope batching.
	fabric *cluster.Fabric

	// retired marks group-table slots decommissioned by RemoveGroupLive
	// (or an aborted add) and not since reused; lifecycle churn must not
	// scan them as serving groups.
	retired []bool

	seq     uint64 // client sequence for direct Puts
	migrSeq uint64 // migration-stream sequence (client migrClientID)

	migr       *migration
	rebalances []scenario.RebalanceStats

	// onGroupAdded observers fire after a new group is built but before
	// it starts (so a load generator can wire SetOnApply). Epoch flips
	// have no callback: consumers poll Epoch(), which flips at most once
	// per migration.
	onGroupAdded []func(GroupID)
}

// shardClientID marks direct Put traffic in the kv idempotence table,
// distinct from the load generator's client 1.
const shardClientID = 2

// New builds (but does not start) a sharded cluster.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	s := &Cluster{
		opts:   opts,
		eng:    sim.NewEngine(opts.Seed),
		router: NewRouter(opts.Groups, opts.Replicas),
	}
	s.fabric = cluster.NewFabric(s.eng, opts.NodesPerGroup, opts.Profile, opts.Fabric)
	s.groups = make([]*cluster.Cluster, opts.Groups)
	s.retired = make([]bool, opts.Groups)
	for g := range s.groups {
		s.groups[g] = s.newGroup()
	}
	return s
}

// newGroup builds one Raft group on the shared engine, attached to the
// consolidation fabric.
func (s *Cluster) newGroup() *cluster.Cluster {
	return cluster.NewWithEngine(s.eng, cluster.Options{
		N:             s.opts.NodesPerGroup,
		Variant:       s.opts.Variant,
		Profile:       s.opts.Profile,
		Cost:          s.opts.Cost,
		Persist:       s.opts.Persist,
		Snapshot:      s.opts.Snapshot,
		SnapshotChunk: s.opts.SnapshotChunk,
		Fabric:        s.fabric,
	})
}

// Start arms every node in every group; per-group elections follow.
func (s *Cluster) Start() {
	for _, c := range s.groups {
		c.Start()
	}
}

// Engine exposes the shared simulation engine.
func (s *Cluster) Engine() *sim.Engine { return s.eng }

// Router exposes the key→group mapping.
func (s *Cluster) Router() *Router { return s.router }

// Epoch returns the router's ring version (bumped by every live move).
func (s *Cluster) Epoch() int { return s.router.Epoch() }

// Groups returns the number of serving Raft groups under the current
// routing epoch.
func (s *Cluster) Groups() int { return s.router.Groups() }

// GroupSlots returns the size of the group table, including slots retired
// by RemoveGroupLive; per-group bookkeeping (load generators) indexes by
// slot so GroupIDs stay stable across the lifecycle.
func (s *Cluster) GroupSlots() int { return len(s.groups) }

// Group returns one group's underlying cluster.
func (s *Cluster) Group(g GroupID) *cluster.Cluster { return s.groups[g] }

// OnGroupAdded registers an observer of new groups, called after the
// group is built but before it starts — the point where a load generator
// must wire SetOnApply.
func (s *Cluster) OnGroupAdded(fn func(GroupID)) { s.onGroupAdded = append(s.onGroupAdded, fn) }

// Now returns virtual time.
func (s *Cluster) Now() time.Duration { return s.eng.Now() }

// Run advances the whole deployment (all groups share the clock) by d.
func (s *Cluster) Run(d time.Duration) { s.eng.Run(s.eng.Now() + d) }

// Leader returns group g's live leader, or nil. A slot outside the group
// table or retired by RemoveGroupLive has no leader by definition —
// lifecycle churn (a prober holding a GroupID across a decommission) gets
// nil instead of a scan of frozen runtimes.
func (s *Cluster) Leader(g GroupID) *raft.Node {
	if int(g) < 0 || int(g) >= len(s.groups) || s.retired[g] {
		return nil
	}
	return s.groups[g].Leader()
}

// Retired reports whether group slot g was decommissioned by
// RemoveGroupLive (or an aborted add migration) and not since reused by
// AddGroupLive.
func (s *Cluster) Retired(g GroupID) bool {
	return int(g) >= 0 && int(g) < len(s.retired) && s.retired[g]
}

// HasLeaders reports whether every serving group currently has a leader.
// (A group still booting inside an add migration, or retired by a remove,
// is not a serving group.)
func (s *Cluster) HasLeaders() bool {
	for g := 0; g < s.router.Groups(); g++ {
		if s.migr != nil && s.migr.kind == "add-group" && s.migr.phase == phasePrepare &&
			GroupID(g) == s.migr.target {
			continue
		}
		if s.retired[g] {
			// Serving groups form a prefix of the table (removes retire the
			// top slot, adds reuse it), so a retired slot below Groups()
			// would be a lifecycle bug — but never scan one as serving.
			continue
		}
		if s.groups[g].Leader() == nil {
			return false
		}
	}
	return true
}

// WaitLeaders runs until every group has elected a leader, up to timeout.
func (s *Cluster) WaitLeaders(timeout time.Duration) bool {
	deadline := s.eng.Now() + timeout
	for s.eng.Now() < deadline {
		if s.HasLeaders() {
			return true
		}
		s.Run(10 * time.Millisecond)
	}
	return s.HasLeaders()
}

// Put routes key to its group, proposes the write on that group's leader
// and advances the simulation until the command applies there (or timeout
// elapses). It is the testbed's synchronous client call. While the key is
// fenced by a live migration the call waits for the cutover first — the
// blocked span is exactly the mid-move write latency the rebalance
// scenarios measure.
func (s *Cluster) Put(key string, value []byte, timeout time.Duration) error {
	deadline := s.eng.Now() + timeout
	for s.Fenced(key) {
		if s.eng.Now() >= deadline {
			return fmt.Errorf("shard: key %q stayed fenced by a group migration for %v", key, timeout)
		}
		s.Run(time.Millisecond)
	}
	g := s.router.Route(key)
	c := s.groups[g]
	s.seq++
	seq := s.seq
	data := kv.Encode(kv.Command{
		Op: kv.OpPut, Client: shardClientID, Seq: seq, Key: key, Value: value,
	})
	// Propose through LeaderProposeBatch so synchronous Puts pay the same
	// leader CPU cost (and queue behind the same backlog) as every other
	// client path — a free side door would skew the utilization and
	// saturation curves the testbed measures.
	var (
		idx      uint64
		perr     error
		proposed bool
	)
	if !c.LeaderProposeBatch([][]byte{data}, func(first, _ uint64, err error) {
		idx, perr, proposed = first, err, true
	}) {
		return fmt.Errorf("shard: group %d has no leader", g)
	}
	for s.eng.Now() < deadline && !proposed {
		s.Run(time.Millisecond)
	}
	if !proposed {
		return fmt.Errorf("shard: group %d leader did not process the propose within %v", g, timeout)
	}
	if perr != nil {
		return fmt.Errorf("shard: group %d propose: %w", g, perr)
	}
	for s.eng.Now() < deadline {
		// Poll the group's *current* leader each iteration: the proposer
		// may be paused or deposed mid-wait, and its stalled store would
		// time out a write that in fact committed on its successor.
		if cur := c.Leader(); cur != nil {
			store := c.Store(cur.ID())
			if store.AppliedIndex() >= idx {
				// Applied is not committed-as-proposed: a newer leader may
				// have overwritten idx with its own entry. The idempotence
				// table is the authoritative witness — no later seq of this
				// client can exist while this call blocks, and it rides in
				// snapshots, so it stays valid even if idx was compacted
				// away before this node caught up.
				if store.LastSeq(shardClientID) >= seq {
					return nil
				}
				return fmt.Errorf("shard: group %d write at index %d was superseded by a newer leader", g, idx)
			}
		}
		s.Run(time.Millisecond)
	}
	return fmt.Errorf("shard: group %d did not commit index %d within %v", g, idx, timeout)
}

// Get reads key from its group leader's store (leader-local reads, the
// same consistency the single-group testbed serves). Before a migration's
// cutover it dual-reads: a miss at the key's current owner falls back to
// its previous-epoch owner, so a read can never miss a key that committed
// before the move (the copy stream may simply not have reached it yet —
// and the write fence guarantees the source copy is never stale). After
// cutover the destination is authoritative and a miss stays a miss. It
// returns false when the key is absent or the group momentarily has no
// leader.
func (s *Cluster) Get(key string) ([]byte, bool) {
	if v, ok := s.getFrom(s.router.Route(key), key); ok {
		return v, true
	}
	if s.dualReadActive() {
		if pg, ok := s.router.RoutePrev(key); ok {
			return s.getFrom(pg, key)
		}
	}
	return nil, false
}

func (s *Cluster) getFrom(g GroupID, key string) ([]byte, bool) {
	lead := s.groups[g].Leader()
	if lead == nil {
		return nil, false
	}
	return s.groups[g].Store(lead.ID()).Get(key)
}

// MultiGet is the cross-shard read path: it partitions keys by group and
// reads each batch from that group's leader, with the same per-key
// dual-read fallback as Get during a migration. The result is per-group
// leader-local consistent but is not a snapshot across groups — groups
// commit independently, which is the price of sharding (and exactly what
// a future cross-shard transaction PR would address). Missing keys are
// absent from the result.
func (s *Cluster) MultiGet(keys ...string) map[string][]byte {
	out := make(map[string][]byte, len(keys))
	for g, ks := range s.router.Partition(keys) {
		lead := s.groups[g].Leader()
		var store *kv.Store
		if lead != nil {
			store = s.groups[g].Store(lead.ID())
		}
		for _, k := range ks {
			if store != nil {
				if v, ok := store.Get(k); ok {
					out[k] = v
					continue
				}
			}
			if s.dualReadActive() {
				if pg, ok := s.router.RoutePrev(k); ok {
					if v, ok := s.getFrom(pg, k); ok {
						out[k] = v
					}
				}
			}
		}
	}
	return out
}

// liveSlot reports whether g names a current, non-retired group slot.
func (s *Cluster) liveSlot(g int) bool {
	return g >= 0 && g < len(s.groups) && !s.retired[g]
}

// GroupLeader returns serving group g's current leader id, or 0 when the
// slot is out of range, retired, or mid-election — the group-addressed
// fault kinds' fire-time target resolution.
func (s *Cluster) GroupLeader(g int) raft.ID {
	if l := s.Leader(GroupID(g)); l != nil {
		return l.ID()
	}
	return 0
}

// PauseGroupNode / ResumeGroupNode / CrashGroupNode / RestartGroupNode /
// GroupNodePaused expose one group's process controls to the scenario
// layer's group-addressed faults. Every call tolerates a slot retired
// between fire and heal: a heal landing on a decommissioned group must
// not wake its (deliberately frozen) nodes.
func (s *Cluster) PauseGroupNode(g int, id raft.ID) {
	if s.liveSlot(g) {
		s.groups[g].Pause(id)
	}
}

func (s *Cluster) ResumeGroupNode(g int, id raft.ID) {
	if s.liveSlot(g) {
		s.groups[g].Resume(id)
	}
}

func (s *Cluster) GroupNodePaused(g int, id raft.ID) bool {
	return !s.liveSlot(g) || s.groups[g].Paused(id)
}

func (s *Cluster) CrashGroupNode(g int, id raft.ID) {
	if s.liveSlot(g) {
		s.groups[g].Crash(id)
	}
}

func (s *Cluster) RestartGroupNode(g int, id raft.ID) {
	if s.liveSlot(g) {
		s.groups[g].Restart(id)
	}
}

// GroupStores returns group g's live (non-paused, non-crashed) replica
// stores — the invariant checker's convergence and double-apply surface.
func (s *Cluster) GroupStores(g int) []scenario.StoreProbe {
	if !s.liveSlot(g) {
		return nil
	}
	c := s.groups[g]
	out := make([]scenario.StoreProbe, 0, c.N())
	for id := raft.ID(1); int(id) <= c.N(); id++ {
		if !c.Paused(id) {
			out = append(out, c.Store(id))
		}
	}
	return out
}

// ProbeRead reads key through the same owner-then-previous-owner path as
// Get/MultiGet and additionally reports servability: whether some
// responsible group could authoritatively answer. An unservable result
// (every responsible side mid-election) tells the invariant checker to
// skip the sample rather than score a miss it cannot trust.
func (s *Cluster) ProbeRead(key string) (v []byte, found, servable bool) {
	g := s.router.Route(key)
	lead := s.Leader(g)
	if lead != nil {
		if v, ok := s.groups[g].Store(lead.ID()).Get(key); ok {
			return v, true, true
		}
		if !s.dualReadActive() {
			return nil, false, true // post-cutover the owner's miss is authoritative
		}
	}
	if s.dualReadActive() {
		pg, moved := s.router.RoutePrev(key)
		if !moved {
			// The key is not part of the live move; the owner's answer (or
			// its leaderless silence) stands alone.
			return nil, false, lead != nil
		}
		if plead := s.Leader(pg); plead != nil {
			if v, ok := s.groups[pg].Store(plead.ID()).Get(key); ok {
				return v, true, true
			}
			// Both responsible sides answered: an authoritative miss —
			// unless the current owner was leaderless, in which case only
			// the fallback spoke and a copy could be in flight toward the
			// silent side.
			return nil, false, lead != nil
		}
	}
	return nil, false, false
}

// PhysLinks exposes the deployment's shared physical mesh — every
// group's traffic rides it, so one SetDown severs the path for all of
// them.
func (s *Cluster) PhysLinks() *netsim.Network[netsim.Envelope[raft.Message]] {
	return s.fabric.Net()
}

// WireStats reports the consolidated transport's message accounting:
// logical is the number of raft messages submitted by senders (what a
// per-group mesh would have put on the wire one-per-message), wire the
// number of envelopes that actually crossed the shared mesh. Their ratio
// is the per-node-pair batching factor.
func (s *Cluster) WireStats() (logical, wire uint64) {
	st := s.fabric.Net().TotalStats()
	return s.fabric.LogicalMessages(), st.Sent[netsim.TCP] + st.Sent[netsim.UDP]
}

// CompactAll compacts every node's log in every group.
func (s *Cluster) CompactAll(keepLast uint64) {
	for _, c := range s.groups {
		c.CompactAll(keepLast)
	}
}

// MaxLogStats samples the worst per-node live Raft log across serving
// (non-retired) groups — the memory footprint the snapshot policy
// bounds. Retired groups' frozen logs are excluded: their processes are
// decommissioned, not resident.
func (s *Cluster) MaxLogStats() (entries int, bytes uint64) {
	for g, c := range s.groups {
		if s.retired[g] {
			continue
		}
		ls := c.LogStatsNow()
		if ls.MaxEntries > entries {
			entries = ls.MaxEntries
		}
		if ls.MaxBytes > bytes {
			bytes = ls.MaxBytes
		}
	}
	return entries, bytes
}
