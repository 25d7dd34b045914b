package scenario

import (
	"fmt"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/metrics"
	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/sim"
	"dynatune/internal/storage"
	"dynatune/internal/trace"
	"dynatune/internal/workload"
)

// Cluster is the slice of the single-group testbed the engine drives.
// *cluster.Cluster satisfies it as-is; the interface exists so this
// package can orchestrate experiments without importing the testbed
// (cluster imports scenario to expose its Run* API as thin spec
// constructors, so the dependency must point this way).
type Cluster interface {
	Start()
	Engine() *sim.Engine
	Recorder() *trace.Recorder
	Network() *netsim.Network[raft.Message]
	Run(d time.Duration)
	Now() time.Duration
	N() int
	Node(id raft.ID) *raft.Node
	Leader() *raft.Node
	WaitLeader(timeout time.Duration) *raft.Node
	Pause(id raft.ID)
	Resume(id raft.ID)
	Paused(id raft.ID) bool
	SetClockSkew(id raft.ID, offset time.Duration, drift float64)
	Crash(id raft.ID)
	Restart(id raft.ID)
	PauseLeader() (raft.ID, time.Duration)
	CrashLeader() (raft.ID, time.Duration)
	FollowerRandomizedTimeouts() []time.Duration
	KthSmallestRandomizedTimeout(k int) time.Duration
	LinkRTT(a, b raft.ID) time.Duration
	LeaderMeanHeartbeatInterval() time.Duration
	CPUPercent(id raft.ID, window time.Duration) float64
	DynatuneTuner(id raft.ID) *dynatune.Tuner
	Persister(id raft.ID) *storage.Memory
	CompactAll(keepLast uint64)
}

// LoadGen is the single-group open-loop generator (cluster.LoadGen).
type LoadGen interface {
	Start()
	Results() []Step
	ProposeErrors() uint64
	Lost() uint64
	Pending() int
}

// MultiCluster is the sharded multi-Raft testbed (shard.Cluster). The
// rebalance methods drive the dynamic group lifecycle: AddGroupLive and
// RemoveGroupLive start an asynchronous drain → cutover → serve migration
// on the shared engine (the rebalance fault kinds fire them mid-run), and
// Rebalances reports the completed moves.
type MultiCluster interface {
	Start()
	Run(d time.Duration)
	WaitLeaders(timeout time.Duration) bool
	Groups() int
	Engine() *sim.Engine
	AddGroupLive(deadline time.Duration) error
	RemoveGroupLive(deadline time.Duration) error
	Rebalancing() bool
	Rebalances() []RebalanceStats
	// PhysLinks returns the consolidated deployment's shared physical
	// mesh — the fault surface for link-level kinds in sharded runs: one
	// cut affects every group riding the link.
	PhysLinks() *netsim.Network[netsim.Envelope[raft.Message]]

	// Group-addressed fault surface: the *-node kinds carrying a Group
	// target resolve and act on one serving group's current leader.
	// Group indices are 0-based serving slots (g < Groups()).
	GroupLeader(g int) raft.ID
	PauseGroupNode(g int, id raft.ID)
	ResumeGroupNode(g int, id raft.ID)
	GroupNodePaused(g int, id raft.ID) bool
	CrashGroupNode(g int, id raft.ID)
	RestartGroupNode(g int, id raft.ID)

	// Invariant-checker probe surface (see invariant.go): per-group live
	// replica stores for convergence and double-apply checks, and a read
	// through the router's MultiGet path with a servability verdict.
	GroupStores(g int) []StoreProbe
	ProbeRead(key string) (v []byte, found, servable bool)

	// MaxLogStats samples the worst per-node live Raft log across serving
	// groups — entries and bytes — the footprint the snapshot policy is
	// meant to bound. The ramp samples it once a second.
	MaxLogStats() (entries int, bytes uint64)
}

// StoreProbe is the read-only slice of a replica state machine the
// invariant checker consumes; *kv.Store satisfies it. Keeping it an
// interface here lets the checker's detectors be negative-tested against
// deliberately-broken store wrappers without a simulation in the loop.
type StoreProbe interface {
	Get(key string) ([]byte, bool)
	SortedKeys() []string
	Dupes() uint64
}

// MultiLoadGen is the keyed sharded generator (shard.LoadGen).
type MultiLoadGen interface {
	Start()
	Results() []Step
	P99Ms() float64
	TotalCompleted() int
	ProposeErrors() uint64
	Lost() uint64
	Pending() int
	// PhaseLatencies buckets the run's per-request latencies by rebalance
	// phase (before the first move / during any move / after the last).
	PhaseLatencies() (pre, mid, post PhaseLatency)
	// SetOnComplete registers an observer of every completed (acked)
	// write — its key and the client sequence its value encodes. The
	// invariant checker's ack feed; nil-safe to leave unset.
	SetOnComplete(func(key string, seq uint64))
}

// PhaseLatency summarizes the completed requests of one rebalance phase.
type PhaseLatency struct {
	Completed int
	P50Ms     float64
	P99Ms     float64
}

// RebalanceStats records one completed (or aborted) group move — the
// rebalance measurement hook's per-move output. Times are absolute
// virtual-time marks in milliseconds (the engine clock, which starts 0 at
// testbed construction — before settle and ramp start); durations like
// CutoverMs−StartMs are what to compare across runs.
type RebalanceStats struct {
	// Kind is the fault kind that drove the move ("add-group" /
	// "remove-group").
	Kind string
	// Group is the group that was added or removed.
	Group int
	// Epoch is the router epoch the move installed.
	Epoch int
	// StartMs/CutoverMs/DoneMs mark migration start, the routing flip
	// (fence lift), and source-cleanup completion.
	StartMs   float64
	CutoverMs float64
	DoneMs    float64
	// MovedKeys / TotalKeys: keys streamed to their new owner vs the whole
	// keyspace resident at drain time. MovedFraction is their ratio — the
	// consistent-hash bound says ≈1/(G+1) for an add.
	MovedKeys     int
	TotalKeys     int
	MovedFraction float64
	// DrainRounds counts convergence passes of the drain scan (>1 means
	// pre-fence writes were still landing during the first copy).
	DrainRounds int
	// BulkChunks counts span chunks replicated by the snapshot-shipped
	// bulk phase (0 under key-stream migration, where every key is its
	// own command).
	BulkChunks int
	// ProposeOps counts replicated commands the migration proposed in
	// total — span installs, per-key copies, cleanup deletes and barriers.
	// The snapshot-ship vs key-stream comparison is this number: the bulk
	// phase turns O(moved keys) proposes into O(chunks).
	ProposeOps int
	// ProposeErrors counts migration proposes that failed (no leader, or
	// an error reported by the propose callback). Failed batches are not
	// retried in place — the next convergence scan re-copies what is
	// actually missing — but the count must surface: a silent nonzero here
	// once hid every such retry.
	ProposeErrors int
	// Aborted is set when the new group missed the cutover deadline before
	// electing a leader and the move was rolled back.
	Aborted bool
	// Skipped is set when the move never started because an earlier
	// migration was still draining when it fired; Group is the id the move
	// would have added or removed.
	Skipped bool
}

// RebalanceReport is the rebalance measurement hook: per-move stats plus
// the run's latency distribution split into pre/mid/post-move phases, so
// a scenario exposes exactly what the move cost the tail.
type RebalanceReport struct {
	Moves []RebalanceStats
	Pre   PhaseLatency
	Mid   PhaseLatency
	Post  PhaseLatency
	// Unfinished is set when a migration was still in flight at the end
	// of the run's grace window: Moves then misses that move, and the
	// final topology is not what the fault schedule promised.
	Unfinished bool
}

// MovesDone counts the moves that actually completed (neither skipped by
// an overlapping migration nor aborted at the cutover deadline).
func (r RebalanceReport) MovesDone() int {
	n := 0
	for _, mv := range r.Moves {
		if !mv.Skipped && !mv.Aborted {
			n++
		}
	}
	return n
}

// Env supplies the concrete testbed constructors for one run. The legacy
// cluster/shard wrappers bind it to their already-realized Options; the
// bind package realizes it from the Spec itself.
type Env struct {
	// Variant is the display name stamped on results (falls back to the
	// spec's variant name).
	Variant string
	// NewCluster builds one single-group testbed on its own engine with
	// the given seed.
	NewCluster func(seed int64) Cluster
	// NewLoadGen attaches an open-loop generator to a not-yet-started
	// cluster built by NewCluster.
	NewLoadGen func(c Cluster, ramp workload.Ramp, clientRTT time.Duration) LoadGen
	// NewMulti builds one sharded testbed plus its keyed generator.
	NewMulti func(seed int64, ramp workload.Ramp) (MultiCluster, MultiLoadGen)
	// Workers is the parallel trial runner's worker count
	// (cluster.TrialWorkers()).
	Workers int
	// RunShards executes run(0..shards-1) deterministically: results must
	// depend only on the shard index, not on which worker ran it. The
	// cluster layer backs this with cluster.RunSharded.
	RunShards func(workers, shards int, run func(shard int))
}

func (e Env) variantName(spec Spec) string {
	if e.Variant != "" {
		return e.Variant
	}
	return spec.Variant.Name
}

// runShards falls back to a sequential loop when the env left RunShards
// unset; output is identical either way, by the RunShards contract.
func (e Env) runShards(shards int, run func(int)) {
	if e.RunShards != nil {
		w := e.Workers
		if w < 1 {
			w = 1
		}
		e.RunShards(w, shards, run)
		return
	}
	for i := 0; i < shards; i++ {
		run(i)
	}
}

// TrialShardSize is how many trials one shard (one cluster, one engine,
// one seed) runs sequentially — kept equal to the historical parallel
// runner's shard size so ≤50-trial experiments reproduce the golden
// pre-refactor samples exactly.
const TrialShardSize = 50

// ShardSeed derives shard s's engine seed. Shard 0 keeps the experiment
// seed unchanged so single-shard runs reproduce the historical sequential
// results; later shards stride by a large odd constant (the scheme the
// ramp repetitions have always used).
func ShardSeed(seed int64, s int) int64 {
	return seed + int64(s)*1000003
}

// ShardCounts splits trials into shard-sized blocks.
func ShardCounts(trials, size int) []int {
	if trials <= 0 {
		return nil
	}
	n := (trials + size - 1) / size
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	if rem := trials % size; rem != 0 {
		out[n-1] = rem
	}
	return out
}

// Step is one ramp step's aggregate, shared by the single-group and
// sharded generators (P99Ms stays zero where the generator does not track
// tails).
type Step struct {
	OfferedRPS   int
	ThroughputRS float64 // completed requests per second
	LatencyMs    float64 // mean latency
	P99Ms        float64 // tail latency
	Completed    int
}

// FailoverResult is the unified outcome of repeated fault trials: crash
// failovers fill Detection/OTS (+Retune/Replay when the process is
// crash-restarted), planned handovers fill HandoverMs. Legacy names
// (cluster.ElectionResult, …) alias this type.
type FailoverResult struct {
	Variant string
	Trials  int
	// Per-trial samples in milliseconds.
	DetectionMs []float64
	OTSMs       []float64
	// HandoverMs: transfer initiation → new leader elected (transfer
	// trials only).
	HandoverMs []float64
	// RetuneMs: restarted node's tuner re-warm times (crash trials on
	// Dynatune variants only).
	RetuneMs []float64
	// ReplayEntries is the mean number of log entries restarted nodes
	// replayed from their durable stores.
	ReplayEntries float64
	// MeanRandTimeoutMs is the mean randomized timeout across live
	// followers sampled at each failure instant.
	MeanRandTimeoutMs float64
	// SplitVoteRounds counts candidate re-timeouts during the measured
	// elections.
	SplitVoteRounds int
	// FailedTrials counts trials with no election inside the per-trial
	// timeout (excluded from the samples).
	FailedTrials int
}

// Summary bundles detection/OTS summaries.
func (r FailoverResult) Summary() (det, ots metrics.Summary) {
	return metrics.Summarize(r.DetectionMs), metrics.Summarize(r.OTSMs)
}

// SeriesResult holds the time-series probes of a fluctuation run
// (Figs. 6 and 7). cluster.SeriesResult aliases this type.
type SeriesResult struct {
	Variant string
	Horizon time.Duration
	// RandTimeout3rdMs is the third-smallest randomized timeout across
	// live nodes, sampled once per second (Fig. 6).
	RandTimeout3rdMs *metrics.TimeSeries
	// LinkRTTMs is the nominal RTT of the 1↔2 link.
	LinkRTTMs *metrics.TimeSeries
	// LeaderHMs is the mean tuned heartbeat interval on the leader.
	LeaderHMs *metrics.TimeSeries
	// LeaderCPU / FollowerCPU are docker-stats-style percentages.
	LeaderCPU   *metrics.TimeSeries
	FollowerCPU *metrics.TimeSeries
	// MeasuredLossPct is a live follower tuner's loss estimate (×100).
	MeasuredLossPct *metrics.TimeSeries
	// OTS spans observed after the first election.
	OTS *metrics.Intervals
	// Timeouts / Elections / Reverts count protocol events in the window.
	Timeouts  int
	Elections int
	Reverts   int
}

// RampPoint is one (offered RPS → achieved throughput, latency)
// measurement averaged over repetitions. cluster.ThroughputPoint aliases
// this type.
type RampPoint struct {
	OfferedRPS    int
	ThroughputRS  float64
	ThroughputStd float64
	LatencyMs     float64
}

// RampResult is the single-group throughput outcome plus the client-side
// loss accounting summed over repetitions.
type RampResult struct {
	Variant       string
	Points        []RampPoint
	ProposeErrors uint64
	Lost          uint64
	Pending       int
}

// ShardRampResult aggregates one sharded ramp run. shard.RampResult
// aliases this type.
type ShardRampResult struct {
	Groups int
	Points []Step
	// AggThroughput is the mean aggregate committed-ops rate over the
	// whole ramp.
	AggThroughput float64
	// PeakThroughput is the best single step.
	PeakThroughput float64
	// P99Ms is the tail latency over the whole ramp.
	P99Ms         float64
	Completed     int
	ProposeErrors uint64
	// Lost counts proposals overwritten by a newer leader before
	// committing; Pending counts arrivals never proposed.
	Lost    uint64
	Pending int
	// MaxLogEntries / MaxLogBytes are the peak worst-replica live Raft log
	// observed over the run (sampled once a second) — with a snapshot
	// policy armed, MaxLogEntries stays bounded by the policy's threshold
	// regardless of run length.
	MaxLogEntries int
	MaxLogBytes   uint64
	// Rebalance carries the group-move measurement when the run's fault
	// schedule included rebalance kinds (nil otherwise).
	Rebalance *RebalanceReport
	// Invariants carries the standing invariant suite's verdict when the
	// spec armed it (nil otherwise).
	Invariants *InvariantReport
}

// ReadMode selects the linearizable-read path under test.
// cluster.ReadMode aliases this type.
type ReadMode int

const (
	// ReadModeIndex always uses ReadIndex (one heartbeat round per read).
	ReadModeIndex ReadMode = iota
	// ReadModeLease serves from the check-quorum lease when it holds and
	// falls back to ReadIndex when it lapsed.
	ReadModeLease
)

func (m ReadMode) String() string {
	if m == ReadModeLease {
		return "lease"
	}
	return "read-index"
}

// ReadsResult aggregates a linearizable-read run. cluster's
// ReadLatencyResult aliases this type.
type ReadsResult struct {
	Variant string
	Mode    ReadMode
	Issued  int
	// LatencyMs is the registration→confirmation delay of each successful
	// read (0 for lease hits: they confirm synchronously).
	LatencyMs []float64
	// LeaseHits counts reads served from the lease without a quorum round.
	LeaseHits int
	// Fallbacks counts lease-mode reads that fell back to ReadIndex.
	Fallbacks int
	// Failed counts reads aborted by leadership churn or not-ready leaders.
	Failed int
}

// LatencySummary summarizes the successful read latencies.
func (r ReadsResult) LatencySummary() metrics.Summary {
	return metrics.Summarize(r.LatencyMs)
}

// MembershipResult records one add-learner → catch-up → promote cycle.
// cluster.MembershipResult aliases this type.
type MembershipResult struct {
	Variant string
	// CatchupMs: add-learner commit → learner's applied index reaches the
	// leader's at proposal time.
	CatchupMs float64
	// JoinerTunedMs: learner added → the joiner's Dynatune engages.
	JoinerTunedMs float64
	// PromoteMs: promotion proposal → applied on the leader.
	PromoteMs float64
	// PostFailoverOTSMs: OTS of a leader crash right after the promotion.
	PostFailoverOTSMs float64
	// JoinerBecameLeader reports whether the failover elected the joiner.
	JoinerBecameLeader bool
}

// Result is one executed Spec; exactly one payload is set, matching the
// spec's Measure.
type Result struct {
	Spec       Spec
	Failover   *FailoverResult
	Series     *SeriesResult
	Ramp       *RampResult
	ShardRamps []ShardRampResult
	Reads      *ReadsResult
	Membership *MembershipResult
}

// Violations collects every invariant violation across the result's
// repetitions (empty when the spec armed no invariant suite, or every
// invariant held). The CLI and the chaos-storm search both treat a
// non-empty return as a failed run.
func (r *Result) Violations() []Violation {
	var out []Violation
	for i := range r.ShardRamps {
		if inv := r.ShardRamps[i].Invariants; inv != nil {
			out = append(out, inv.Violations...)
		}
	}
	return out
}

// Run executes one spec against the environment's testbed.
func Run(spec Spec, env Env) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Spec: spec}
	switch spec.Measure {
	case MeasureFailover:
		res.Failover = runFailover(spec, env)
	case MeasureSeries:
		res.Series = runSeries(spec, env)
	case MeasureThroughput:
		if spec.Topology.Groups > 0 {
			if env.NewMulti == nil {
				return nil, fmt.Errorf("scenario %q: env has no sharded testbed", spec.Name)
			}
			res.ShardRamps = runShardRampReps(spec, env)
		} else {
			res.Ramp = runRamp(spec, env)
		}
	case MeasureReads:
		res.Reads = runReads(spec, env)
	case MeasureMembership:
		res.Membership = runMembership(spec, env)
	}
	return res, nil
}
