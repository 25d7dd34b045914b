// Package cluster is the simulated testbed: it wires raft nodes, tuners,
// the kv state machine, the network simulator and a CPU cost model into a
// reproducible cluster, and provides the failure-injection primitives
// (pause, crash+restart, partitions) and measurement probes the
// experiments use. Experiment orchestration itself lives in
// internal/scenario — the Run* entry points here are thin spec
// constructors over that engine, bound to this testbed via ScenarioEnv.
package cluster

import (
	"fmt"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/geo"
	"dynatune/internal/kv"
	"dynatune/internal/metrics"
	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/sim"
	"dynatune/internal/storage"
	"dynatune/internal/trace"
)

// Variant selects the system under test: the paper's Dynatune, the etcd
// baseline ("Raft"), the aggressive static baseline ("Raft-Low"), or the
// Fix-K ablation.
type Variant struct {
	Name string
	// NewTuner builds one tuner per node.
	NewTuner func() raft.Tuner
	// HeartbeatClass is UDP for Dynatune's hybrid transport (§III-E), TCP
	// for stock etcd.
	HeartbeatClass netsim.Class
	// Tuned enables the tuning-overhead components of the cost model.
	Tuned bool
	// SuppressHeartbeats / ConsolidateTimers enable the paper's §IV-E
	// future-work optimizations on the raft layer.
	SuppressHeartbeats bool
	ConsolidateTimers  bool
}

// Paper defaults (§IV-A): Et=1000 ms, h=100 ms.
const (
	BaselineEt = 1000 * time.Millisecond
	BaselineH  = 100 * time.Millisecond
)

// VariantRaft is the etcd-default baseline.
func VariantRaft() Variant {
	return Variant{
		Name:           "Raft",
		NewTuner:       func() raft.Tuner { return raft.NewStaticTuner(BaselineEt, BaselineH) },
		HeartbeatClass: netsim.TCP,
	}
}

// VariantRaftLow is the paper's aggressive static baseline: parameters at
// one tenth of the defaults (§IV-C1).
func VariantRaftLow() Variant {
	return Variant{
		Name:           "Raft-Low",
		NewTuner:       func() raft.Tuner { return raft.NewStaticTuner(BaselineEt/10, BaselineH/10) },
		HeartbeatClass: netsim.TCP,
	}
}

// VariantDynatune is the paper's system with the given options
// (zero-valued fields take the paper's defaults).
func VariantDynatune(opts dynatune.Options) Variant {
	return Variant{
		Name:           "Dynatune",
		NewTuner:       func() raft.Tuner { return dynatune.MustNew(opts) },
		HeartbeatClass: netsim.UDP,
		Tuned:          true,
	}
}

// VariantDynatuneExt is Dynatune plus both §IV-E future-work
// optimizations: heartbeat suppression under replication load and a
// consolidated leader heartbeat timer.
func VariantDynatuneExt(opts dynatune.Options) Variant {
	v := VariantDynatune(opts)
	v.Name = "Dynatune-Ext"
	v.SuppressHeartbeats = true
	v.ConsolidateTimers = true
	return v
}

// VariantFixK is Dynatune with loss-adaptive K disabled (fixed at k), the
// §IV-C2 comparison point.
func VariantFixK(k int) Variant {
	return Variant{
		Name: fmt.Sprintf("Fix-K(%d)", k),
		NewTuner: func() raft.Tuner {
			return dynatune.MustNew(dynatune.Options{FixK: k})
		},
		HeartbeatClass: netsim.UDP,
		Tuned:          true,
	}
}

// Options configure a Cluster.
type Options struct {
	N       int
	Seed    int64
	Variant Variant
	// Profile is the uniform all-links network schedule; Regions, if set,
	// overrides it with the geo matrix (one region per node).
	Profile netsim.Profile
	Regions []geo.Region
	// GeoJitterFrac / GeoLoss parameterize the geo links.
	GeoJitterFrac float64
	GeoLoss       float64

	// InitialMembers, when non-zero, makes only nodes 1..InitialMembers
	// initial voters; the rest start as self-declared learners outside the
	// cluster, waiting to be added via ProposeConfChange (the membership
	// experiment uses this).
	InitialMembers int

	// Persist gives every node a durable store (storage.Memory) and
	// enables the crash-restart failure mode: Crash drops a node's entire
	// volatile state — including Dynatune's measurement lists — and
	// Restart rebuilds it from the persisted term/vote/log, modelling the
	// paper's §III-A crash-recovery fault class (Pause models only the
	// crash/freeze class).
	Persist bool

	// Snapshot is the automatic snapshot-at-index policy: when armed, each
	// node snapshots its kv store and truncates the log whenever the live
	// tail outgrows the policy's entry/byte thresholds. The zero value
	// disables it, leaving compaction to explicit CompactAll calls (the
	// pre-policy behaviour every golden was recorded under).
	Snapshot raft.SnapshotPolicy
	// SnapshotChunk bounds one streamed InstallSnapshot message's payload;
	// 0 keeps the legacy single-envelope transfer.
	SnapshotChunk int

	// Fabric, when set, attaches this cluster as one group of a
	// consolidated multi-Raft deployment: instead of building a private
	// netsim mesh and per-timer engine events, the group shares the
	// fabric's physical mesh (envelope-multiplexed, per-node-pair batched)
	// and per-node tick driver with every other attached group. Profile is
	// ignored (the fabric owns the links) and Regions are unsupported. The
	// engine must be the fabric's.
	Fabric *Fabric

	Cost CostModel
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Variant.NewTuner == nil {
		o.Variant = VariantRaft()
	}
	if o.Profile.Segments == nil {
		o.Profile = netsim.Constant(netsim.Params{RTT: 100 * time.Millisecond, Jitter: 2 * time.Millisecond})
	}
	if o.Cost.Cores == 0 {
		o.Cost = DefaultCostModel()
	}
	return o
}

// Cluster is a simulated deployment of N nodes.
type Cluster struct {
	opts Options
	eng  *sim.Engine
	net  *netsim.Network[raft.Message] // nil when fabric-attached
	rec  *trace.Recorder
	cost CostModel

	// fabric / fabricUID are set when this cluster is one group of a
	// consolidated multi-Raft deployment (Options.Fabric).
	fabric    *Fabric
	fabricUID int

	nodes      []*raft.Node
	rts        []*nodeRT
	tuners     []raft.Tuner
	stores     []*kv.Store
	persisters []*storage.Memory

	// onApply, when set before Start (see client.go), observes every
	// node's applied entries — the load generator uses it to complete
	// in-flight requests on the leader.
	onApply func(raft.ID, []raft.Entry)
}

// New builds (but does not start) a cluster with its own private engine.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	return build(sim.NewEngine(opts.Seed), opts)
}

// NewWithEngine builds a cluster on a caller-owned engine, letting several
// clusters share one virtual clock — the shard layer runs N independent
// Raft groups on a single engine this way. opts.Seed is ignored: all
// randomness comes from eng.
func NewWithEngine(eng *sim.Engine, opts Options) *Cluster {
	opts = opts.withDefaults()
	return build(eng, opts)
}

func build(eng *sim.Engine, opts Options) *Cluster {
	c := &Cluster{
		opts: opts,
		eng:  eng,
		rec:  trace.NewRecorder(),
		cost: opts.Cost,
	}
	if opts.Fabric != nil {
		if len(opts.Regions) > 0 {
			panic("cluster: geo regions are per-link state; a fabric-attached group shares the physical mesh")
		}
		c.fabric = opts.Fabric
		c.fabricUID = opts.Fabric.attach(c)
	} else {
		c.net = netsim.New[raft.Message](c.eng, opts.N, opts.Profile, func(to int, m raft.Message) {
			c.rts[to].deliver(m)
		})
		if len(opts.Regions) > 0 {
			if len(opts.Regions) != opts.N {
				panic(fmt.Sprintf("cluster: %d regions for %d nodes", len(opts.Regions), opts.N))
			}
			geo.ApplyToNetwork(c.net, opts.Regions, opts.GeoJitterFrac, opts.GeoLoss)
		}
	}
	c.rts = make([]*nodeRT, opts.N)
	c.nodes = make([]*raft.Node, opts.N)
	c.tuners = make([]raft.Tuner, opts.N)
	c.stores = make([]*kv.Store, opts.N)
	c.persisters = make([]*storage.Memory, opts.N)
	for i := 0; i < opts.N; i++ {
		c.rts[i] = &nodeRT{
			c:       c,
			id:      raft.ID(i + 1),
			proc:    sim.NewProc(c.eng),
			tuned:   opts.Variant.Tuned,
			hbClass: opts.Variant.HeartbeatClass,
		}
		if c.fabric != nil {
			c.rts[i].fnode = c.fabric.nodes[i]
			c.rts[i].fabUID = c.fabricUID
			c.rts[i].initDrain()
		} else {
			c.rts[i].initStandalone()
		}
		if opts.Persist {
			c.persisters[i] = storage.NewMemory()
		}
		c.buildNode(i, nil)
	}
	return c
}

// buildNode constructs (or, with restored state, reconstructs) node i's
// volatile half: a fresh raft.Node, tuner and state machine wired to the
// node's persistent runtime adapter. Restart uses it to model a
// crash-recovered process: only what the Persister holds survives.
func (c *Cluster) buildNode(i int, restored *raft.Restored) {
	rt := c.rts[i]
	members := c.opts.InitialMembers
	if members <= 0 || members > c.opts.N {
		members = c.opts.N
	}
	peers := make([]raft.ID, members)
	for j := range peers {
		peers[j] = raft.ID(j + 1)
	}
	var learners []raft.ID
	if int(rt.id) > members {
		// A not-yet-added node: it knows the existing voters and itself as
		// a prospective learner; the committed conf change makes it real.
		learners = []raft.ID{rt.id}
	}
	tuner := c.opts.Variant.NewTuner()
	store := kv.NewStore()
	var persister raft.Persister
	if c.persisters[i] != nil {
		persister = c.persisters[i]
	}
	node, err := raft.NewNode(raft.Config{
		ID:                                raft.ID(i + 1),
		Peers:                             peers,
		Learners:                          learners,
		Runtime:                           rt,
		Tuner:                             tuner,
		Tracer:                            c.rec,
		Persister:                         persister,
		Restored:                          restored,
		SuppressHeartbeatWhileReplicating: c.opts.Variant.SuppressHeartbeats,
		ConsolidatedHeartbeats:            c.opts.Variant.ConsolidateTimers,
		Snapshot:                          c.opts.Snapshot,
		SnapshotChunk:                     c.opts.SnapshotChunk,
		SnapshotData: func() []byte {
			rt.proc.Charge(c.cost.SnapshotMarshal)
			return store.MarshalSnapshot()
		},
		RestoreSnapshot: func(data []byte, index uint64) {
			rt.proc.Charge(c.cost.SnapshotRestore)
			if err := store.RestoreSnapshot(data, index); err != nil {
				panic(err)
			}
		},
		Apply: func(ents []raft.Entry) {
			rt.proc.Charge(time.Duration(len(ents)) * c.cost.ApplyEntry)
			store.Apply(ents)
			if c.onApply != nil {
				c.onApply(rt.id, ents)
			}
		},
	})
	if err != nil {
		panic(err)
	}
	rt.node = node
	c.nodes[i] = node
	c.tuners[i] = tuner
	c.stores[i] = store
}

// Start arms every node's election timer; the first election follows.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

// --- accessors ---

// Engine exposes the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// SetOnApply registers an observer of every node's applied entries. It
// must be called before Start; the load generators (cluster.LoadGen and
// the shard layer's) use it to complete in-flight requests.
func (c *Cluster) SetOnApply(fn func(raft.ID, []raft.Entry)) { c.onApply = fn }

// Network exposes the cluster's private simulated mesh. It is nil for a
// fabric-attached group, whose traffic rides the shared physical mesh
// (Fabric.Net) instead — fault injection there targets physical links
// once, for every co-located group.
func (c *Cluster) Network() *netsim.Network[raft.Message] { return c.net }

// Fabric returns the consolidation fabric this cluster is attached to,
// or nil for a standalone cluster.
func (c *Cluster) Fabric() *Fabric { return c.fabric }

// MaxApplied returns the highest applied index across the cluster's
// nodes — the floor below which no fresh proposal can land (see
// Inflight.Record).
func (c *Cluster) MaxApplied() uint64 {
	var m uint64
	for _, st := range c.stores {
		if a := st.AppliedIndex(); a > m {
			m = a
		}
	}
	return m
}

// ApplyGate returns the completion gate both load generators feed to
// Inflight.ResolveApplied: the current leader's applied index — the
// client-visible commit point — or, during a leaderless window (e.g. the
// committing leader paused after broadcasting commit but before
// applying), the highest applied index across nodes, since each node
// applies an index exactly once and deferring would strand committed
// entries.
func (c *Cluster) ApplyGate() uint64 {
	if lead := c.Leader(); lead != nil {
		return c.Store(lead.ID()).AppliedIndex()
	}
	return c.MaxApplied()
}

// Recorder exposes the event trace.
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// Node returns node id (1-based).
func (c *Cluster) Node(id raft.ID) *raft.Node { return c.nodes[id-1] }

// Store returns node id's kv store.
func (c *Cluster) Store(id raft.ID) *kv.Store { return c.stores[id-1] }

// Tuner returns node id's tuner.
func (c *Cluster) Tuner(id raft.ID) raft.Tuner { return c.tuners[id-1] }

// DynatuneTuner returns node id's tuner as *dynatune.Tuner (nil for
// static variants).
func (c *Cluster) DynatuneTuner(id raft.ID) *dynatune.Tuner {
	t, _ := c.tuners[id-1].(*dynatune.Tuner)
	return t
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.opts.N }

// Now returns virtual time.
func (c *Cluster) Now() time.Duration { return c.eng.Now() }

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) { c.eng.Run(c.eng.Now() + d) }

// Leader returns the live leader with the highest term, or nil.
func (c *Cluster) Leader() *raft.Node {
	var lead *raft.Node
	for i, n := range c.nodes {
		if c.rts[i].paused {
			continue
		}
		if n.State() == raft.StateLeader && (lead == nil || n.Term() > lead.Term()) {
			lead = n
		}
	}
	return lead
}

// WaitLeader runs until a leader exists, up to timeout; it returns nil on
// timeout.
func (c *Cluster) WaitLeader(timeout time.Duration) *raft.Node {
	deadline := c.eng.Now() + timeout
	for c.eng.Now() < deadline {
		if l := c.Leader(); l != nil {
			return l
		}
		c.Run(10 * time.Millisecond)
	}
	return c.Leader()
}

// --- failure injection (paper §IV-B1: container pause) ---

// Pause freezes node id.
func (c *Cluster) Pause(id raft.ID) {
	c.rts[id-1].pause()
	c.rec.MarkNodeDown(c.eng.Now(), id)
}

// Resume unfreezes node id.
func (c *Cluster) Resume(id raft.ID) { c.rts[id-1].resume() }

// Paused reports whether node id is frozen.
func (c *Cluster) Paused(id raft.ID) bool { return c.rts[id-1].paused }

// PauseLeader freezes the current leader and returns its ID and the
// injection time. It panics if there is no leader (callers settle first).
func (c *Cluster) PauseLeader() (raft.ID, time.Duration) {
	l := c.Leader()
	if l == nil {
		panic("cluster: PauseLeader with no leader")
	}
	c.Pause(l.ID())
	return l.ID(), c.eng.Now()
}

// Crash kills node id's process: every piece of volatile state — raft
// role, tuner measurement lists, the applied state machine, timers and
// queued work — is gone. Requires Options.Persist (without a durable
// store a crashed Raft node must not rejoin; use Pause for that model).
func (c *Cluster) Crash(id raft.ID) {
	if c.persisters[id-1] == nil {
		panic("cluster: Crash requires Options.Persist")
	}
	rt := c.rts[id-1]
	rt.pause()
	rt.dropTimers()
	c.rec.MarkNodeDown(c.eng.Now(), id)
}

// Restart brings a crashed node back as a fresh process recovering from
// its durable store. The tuner starts cold: per the paper's §III-B the
// measurement lists are volatile, so the recovered node runs on fallback
// parameters until it has re-collected minListSize samples.
func (c *Cluster) Restart(id raft.ID) {
	i := id - 1
	if c.persisters[i] == nil {
		panic("cluster: Restart requires Options.Persist")
	}
	c.buildNode(int(i), c.persisters[i].Restored())
	rt := c.rts[i]
	rt.paused = false
	rt.proc.Resume()
	rt.node.Start()
}

// CrashLeader crashes the current leader and returns its ID and the
// injection time.
func (c *Cluster) CrashLeader() (raft.ID, time.Duration) {
	l := c.Leader()
	if l == nil {
		panic("cluster: CrashLeader with no leader")
	}
	c.Crash(l.ID())
	return l.ID(), c.eng.Now()
}

// Persister exposes node id's durable store (nil unless Options.Persist).
func (c *Cluster) Persister(id raft.ID) *storage.Memory { return c.persisters[id-1] }

// SetClockSkew skews node id's election timer: every armed delay is
// scaled by (1+drift) and shifted by offset from then on (already-armed
// timers keep their fire times). Drift < 0 models a fast clock — the
// timer fires early, the NTP-error failure mode of the paper's §IV-D
// caveat; (0, 0) restores the true clock. Skew survives Crash/Restart:
// it is a property of the machine, not the process.
func (c *Cluster) SetClockSkew(id raft.ID, offset time.Duration, drift float64) {
	if drift <= -1 {
		panic(fmt.Sprintf("cluster: clock drift %v would run node %d's clock backwards", drift, id))
	}
	rt := c.rts[id-1]
	rt.skewOffset, rt.skewDrift = offset, drift
}

// --- probes ---

// RandomizedTimeouts returns every live node's current randomized election
// timeout.
func (c *Cluster) RandomizedTimeouts() []time.Duration {
	out := make([]time.Duration, 0, len(c.nodes))
	for i, n := range c.nodes {
		if !c.rts[i].paused {
			out = append(out, n.RandomizedTimeout())
		}
	}
	return out
}

// FollowerRandomizedTimeouts returns the randomized election timeouts of
// live non-leader nodes — the population whose timers detect a leader
// failure (the paper's reported per-server randomizedTimeout means).
func (c *Cluster) FollowerRandomizedTimeouts() []time.Duration {
	lead := c.Leader()
	out := make([]time.Duration, 0, len(c.nodes))
	for i, n := range c.nodes {
		if c.rts[i].paused || (lead != nil && n == lead) {
			continue
		}
		out = append(out, n.RandomizedTimeout())
	}
	return out
}

// KthSmallestRandomizedTimeout returns the k-th smallest (1-based)
// randomized timeout across live nodes — the paper plots the third
// smallest, the (f+1)-th, because pre-vote needs a majority (§IV-C1).
func (c *Cluster) KthSmallestRandomizedTimeout(k int) time.Duration {
	ts := c.RandomizedTimeouts()
	if len(ts) == 0 {
		return 0
	}
	// insertion sort; n ≤ 65
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	if k < 1 {
		k = 1
	}
	if k > len(ts) {
		k = len(ts)
	}
	return ts[k-1]
}

// LeaderMeanHeartbeatInterval returns the mean of the leader's per-peer
// heartbeat intervals (what Fig. 7a plots). It returns a documented zero
// whenever there is no usable leader-side state to read — no elected
// leader (mid-election, or every replica paused, as in a retired shard
// group polled mid-consolidated-tick), or a leader whose tuner is being
// rebuilt across a crash-restart — rather than touching nil runtime
// state. Probes sample on a wall schedule, so a zero simply marks a
// leaderless instant in the series.
func (c *Cluster) LeaderMeanHeartbeatInterval() time.Duration {
	l := c.Leader()
	if l == nil {
		return 0
	}
	tuner := c.tuners[l.ID()-1]
	if tuner == nil {
		return 0
	}
	var sum time.Duration
	n := 0
	for _, p := range c.peersOf(l.ID()) {
		sum += tuner.HeartbeatInterval(p)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

func (c *Cluster) peersOf(id raft.ID) []raft.ID {
	out := make([]raft.ID, 0, c.opts.N-1)
	for i := 1; i <= c.opts.N; i++ {
		if raft.ID(i) != id {
			out = append(out, raft.ID(i))
		}
	}
	return out
}

// CPUPercent drains node id's busy window accumulated since the last call
// and converts it to a docker-stats-style percentage of the node's
// multi-core allocation over the given window length.
func (c *Cluster) CPUPercent(id raft.ID, window time.Duration) float64 {
	busy := c.rts[id-1].proc.TakeWindowBusy()
	pct := busy.Seconds() / window.Seconds() * 100 * float64(c.cost.Cores)
	if maxPct := float64(c.cost.Cores) * 100; pct > maxPct {
		pct = maxPct
	}
	return pct
}

// LinkRTT reports the nominal RTT currently in force between two nodes
// (on the shared physical mesh when fabric-attached).
func (c *Cluster) LinkRTT(a, b raft.ID) time.Duration {
	if c.fabric != nil {
		return c.fabric.net.Params(int(a-1), int(b-1)).RTT
	}
	return c.net.Params(int(a-1), int(b-1)).RTT
}

// MessagesSent returns the total messages sent by node id.
func (c *Cluster) MessagesSent(id raft.ID) uint64 { return c.rts[id-1].msgsSent }

// CompactAll compacts every node's log, keeping keepLast entries.
func (c *Cluster) CompactAll(keepLast uint64) {
	for _, n := range c.nodes {
		n.CompactLog(keepLast)
	}
}

// LogStats summarizes the live Raft log footprint across a cluster's
// running nodes — the observable the compaction policy is meant to bound.
type LogStats struct {
	// MaxEntries / MaxBytes are the largest per-node live log (worst
	// replica), TotalBytes the sum over live replicas.
	MaxEntries int
	MaxBytes   uint64
	TotalBytes uint64
	// MinFirstIndex is the lowest compaction floor across live replicas
	// (0 when no node has compacted yet).
	MinFirstIndex uint64
}

// LogStatsNow samples the live log footprint, skipping paused/crashed
// nodes (their volatile log is not memory the deployment is holding).
func (c *Cluster) LogStatsNow() LogStats {
	var ls LogStats
	first := true
	for i, n := range c.nodes {
		if c.rts[i].paused {
			continue
		}
		e, b, fi := n.LogEntries(), n.LogBytes(), n.FirstIndex()
		if e > ls.MaxEntries {
			ls.MaxEntries = e
		}
		if b > ls.MaxBytes {
			ls.MaxBytes = b
		}
		ls.TotalBytes += b
		if first || fi < ls.MinFirstIndex {
			ls.MinFirstIndex = fi
			first = false
		}
	}
	return ls
}

// StoresConsistent verifies that every pair of stores agrees on the
// committed prefix (they may differ in length, not content). It returns
// an error describing the first divergence.
func (c *Cluster) StoresConsistent() error {
	// Compare applied indexes and data at the minimum applied point by
	// replay comparison: since Apply is deterministic and logs match (raft
	// safety), equality of stores with equal applied index is the check.
	for i := 0; i < len(c.stores); i++ {
		for j := i + 1; j < len(c.stores); j++ {
			a, b := c.stores[i], c.stores[j]
			if a.AppliedIndex() == b.AppliedIndex() && !a.Equal(b) {
				return fmt.Errorf("stores %d and %d diverged at applied index %d", i+1, j+1, a.AppliedIndex())
			}
		}
	}
	return nil
}

// OTS returns the out-of-service intervals observed in [from, to).
func (c *Cluster) OTS(from, to time.Duration) *metrics.Intervals {
	return c.rec.OTSIntervals(from, to)
}
