package scenario

import (
	"fmt"
	"math"
	"time"

	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/sim"
)

// FaultKind names one injector.
type FaultKind string

const (
	// FaultPauseLeader freezes the current leader (the paper's
	// `docker pause`); heals by resuming it.
	FaultPauseLeader FaultKind = "pause-leader"
	// FaultPartitionLeader cuts the leader's links in both directions: the
	// process keeps running and must abdicate via check-quorum.
	FaultPartitionLeader FaultKind = "partition-leader"
	// FaultAsymPartitionLeader cuts only the links INTO the leader: its
	// heartbeats still reach the followers (suppressing their failure
	// detectors) while no responses come back, so the out-of-service
	// window is governed entirely by the deaf leader's check-quorum
	// abdication — a scenario the paper's pause model cannot produce.
	FaultAsymPartitionLeader FaultKind = "asym-partition-leader"
	// FaultCrashLeader kills the leader process (volatile state lost) and
	// restarts it from its durable store after the spec's downtime.
	// Requires Topology.Persist.
	FaultCrashLeader FaultKind = "crash-leader"
	// FaultTransferLeader initiates a planned leadership transfer to the
	// next node around the ring instead of killing anything.
	FaultTransferLeader FaultKind = "transfer-leader"

	// FaultPauseNode / FaultCrashNode / FaultPartitionNode target the
	// fixed node in Fault.Node (1-based) instead of the leader.
	FaultPauseNode     FaultKind = "pause-node"
	FaultCrashNode     FaultKind = "crash-node"
	FaultPartitionNode FaultKind = "partition-node"
	// FaultLinkDown cuts the Fault.From↔Fault.To link in both directions.
	FaultLinkDown FaultKind = "link-down"
	// FaultRollingRestart crashes nodes 1..N in turn, one per occurrence
	// (Every/Count), each down for Duration before restarting from its
	// durable store. Requires Topology.Persist.
	FaultRollingRestart FaultKind = "rolling-restart"
	// FaultDegradeLinks replaces every link's schedule with the fault's
	// RTT/Jitter/Loss for Duration, then restores what it displaced —
	// `tc qdisc replace` as a fault, not a profile.
	FaultDegradeLinks FaultKind = "degrade-links"
	// FaultClockSkew skews the election timer of the fixed node in
	// Fault.Node: each armed timer delay is scaled by (1+Drift) and shifted
	// by Offset, modelling NTP rate error and step error (the paper's §IV-D
	// measurement caveat). Drift < 0 is a fast clock (timers fire early);
	// Duration heals by restoring the true clock.
	FaultClockSkew FaultKind = "clock-skew"
	// FaultPartitionGroups cuts every link crossing between the 1-based
	// node sets GroupA and GroupB in both directions — the classic
	// split-brain injection (netsim.PartitionGroups) — and heals the cuts
	// Duration later.
	FaultPartitionGroups FaultKind = "partition-groups"

	// FaultAddGroup / FaultRemoveGroup are the rebalance kinds, valid only
	// for sharded throughput runs: they fire MultiCluster.AddGroupLive /
	// RemoveGroupLive, starting a live drain → cutover → serve migration
	// (boot or decommission one Raft group and stream its keyspace share
	// while the workload keeps arriving). Deadline bounds the cutover;
	// remove-group always retires the highest-numbered group.
	FaultAddGroup    FaultKind = "add-group"
	FaultRemoveGroup FaultKind = "remove-group"
)

// Fault is one entry of the schedule. In failover trials only the first
// fault's Kind is used (one injection per trial); in series and
// throughput runs each fault fires at At, At+Every, ... (Count
// occurrences, clock-relative to the measurement start) and heals
// Duration later when Duration is set.
type Fault struct {
	Kind     FaultKind `json:"kind"`
	At       Duration  `json:"at,omitempty"`
	Every    Duration  `json:"every,omitempty"`
	Count    int       `json:"count,omitempty"`
	Duration Duration  `json:"duration,omitempty"`
	// Node is the 1-based fixed target of the *-node kinds.
	Node int `json:"node,omitempty"`
	// Group (1-based) is the alternative target of the *-node kinds on
	// sharded runs: instead of a fixed physical node, the fault resolves
	// to that Raft group's current leader at fire time — so a storm can
	// pause, crash, or partition the leader *inside* a moving group
	// mid-migration. Exactly one of Node and Group must be set for
	// pause-node / crash-node / partition-node.
	Group int `json:"group,omitempty"`
	// From/To are the 1-based endpoints of link faults.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Degraded link conditions for degrade-links. Dist selects the delay
	// noise: "" / "normal" is Gaussian jitter, "pareto" is heavy-tailed
	// excess delay with shape Alpha (> 1) and scale Jitter — a misbehaving
	// middlebox rather than clean loss.
	RTT    Duration `json:"rtt,omitempty"`
	Jitter Duration `json:"jitter,omitempty"`
	Loss   float64  `json:"loss,omitempty"`
	Dist   string   `json:"dist,omitempty"`
	Alpha  float64  `json:"alpha,omitempty"`
	// Reorder adds correlated reordering bursts to degrade-links: while
	// the degradation holds, burst windows of this length open on every
	// link at Pareto-distributed intervals (scale ReorderEvery), and the
	// packets crossing a link during a window are released in an order
	// permuted under the run's seed — the middlebox buffer-flush behavior
	// plain per-packet jitter can't produce. Both fields are required
	// together.
	Reorder      Duration `json:"reorder,omitempty"`
	ReorderEvery Duration `json:"reorder_every,omitempty"`
	// Deadline bounds a rebalance move's cutover (default 30s).
	Deadline Duration `json:"deadline,omitempty"`
	// Offset/Drift parameterize clock-skew (see FaultClockSkew).
	Offset Duration `json:"offset,omitempty"`
	Drift  float64  `json:"drift,omitempty"`
	// GroupA/GroupB are the 1-based node sets of partition-groups.
	GroupA []int `json:"group_a,omitempty"`
	GroupB []int `json:"group_b,omitempty"`
}

// trialInjector reports whether the kind can drive a failover trial.
func (k FaultKind) trialInjector() bool {
	switch k {
	case FaultPauseLeader, FaultPartitionLeader, FaultAsymPartitionLeader,
		FaultCrashLeader, FaultTransferLeader:
		return true
	}
	return false
}

// needsPersist reports whether the kind restarts crashed processes.
func (k FaultKind) needsPersist() bool {
	return k == FaultCrashLeader || k == FaultCrashNode || k == FaultRollingRestart
}

// rebalance reports whether the kind drives the sharded group lifecycle.
func (k FaultKind) rebalance() bool {
	return k == FaultAddGroup || k == FaultRemoveGroup
}

// groupAddressed reports whether the kind accepts Fault.Group targeting
// (resolve the target as that group's leader at fire time, sharded runs
// only).
func (k FaultKind) groupAddressed() bool {
	switch k {
	case FaultPauseNode, FaultCrashNode, FaultPartitionNode:
		return true
	}
	return false
}

// shardLink reports whether the kind acts purely on physical links, so a
// sharded run can inject it on the consolidated deployment's shared mesh
// (one cut affects every group riding the link). Node/link indices in the
// fault address physical nodes, 1..NodesPerGroup.
func (k FaultKind) shardLink() bool {
	switch k {
	case FaultLinkDown, FaultPartitionNode, FaultPartitionGroups, FaultDegradeLinks:
		return true
	}
	return false
}

func (f Fault) validate() error {
	switch f.Kind {
	case FaultPauseLeader, FaultPartitionLeader, FaultAsymPartitionLeader,
		FaultCrashLeader, FaultTransferLeader, FaultRollingRestart:
	case FaultPauseNode, FaultCrashNode, FaultPartitionNode:
		if f.Node < 1 && f.Group < 1 {
			return fmt.Errorf("%s needs a 1-based node or group target", f.Kind)
		}
		if f.Node >= 1 && f.Group >= 1 {
			return fmt.Errorf("%s targets both node %d and group %d — pick one", f.Kind, f.Node, f.Group)
		}
	case FaultLinkDown:
		if f.From < 1 || f.To < 1 || f.From == f.To {
			return fmt.Errorf("link-down needs distinct 1-based from/to")
		}
	case FaultDegradeLinks:
		if f.RTT <= 0 {
			return fmt.Errorf("degrade-links needs an rtt")
		}
		if f.Duration <= 0 {
			return fmt.Errorf("degrade-links needs a duration to restore after")
		}
		switch f.Dist {
		case "", "normal":
			if f.Alpha != 0 {
				return fmt.Errorf("degrade-links alpha only applies to dist=pareto")
			}
		case "pareto":
			if f.Alpha <= 1 {
				return fmt.Errorf("degrade-links dist=pareto needs alpha > 1 (finite mean), got %v", f.Alpha)
			}
			if f.Jitter <= 0 {
				return fmt.Errorf("degrade-links dist=pareto needs a jitter (the Pareto scale)")
			}
		default:
			return fmt.Errorf("degrade-links: unknown dist %q (want normal or pareto)", f.Dist)
		}
		if f.Reorder < 0 || f.ReorderEvery < 0 {
			return fmt.Errorf("degrade-links reorder fields must not be negative")
		}
		if (f.Reorder > 0) != (f.ReorderEvery > 0) {
			return fmt.Errorf("degrade-links reorder and reorder_every are required together")
		}
		if f.Reorder > 0 && f.Reorder.D() >= f.Duration.D() {
			return fmt.Errorf("degrade-links reorder window %v must be shorter than the fault duration %v", f.Reorder.D(), f.Duration.D())
		}
	case FaultAddGroup, FaultRemoveGroup:
		if f.Deadline < 0 {
			return fmt.Errorf("%s deadline must not be negative", f.Kind)
		}
	case FaultClockSkew:
		if f.Node < 1 {
			return fmt.Errorf("clock-skew needs a 1-based node")
		}
		if f.Offset == 0 && f.Drift == 0 {
			return fmt.Errorf("clock-skew needs an offset and/or a drift")
		}
		if f.Drift <= -1 {
			return fmt.Errorf("clock-skew drift %v would run the clock backwards (must exceed -1)", f.Drift)
		}
	case FaultPartitionGroups:
		if len(f.GroupA) == 0 || len(f.GroupB) == 0 {
			return fmt.Errorf("partition-groups needs two non-empty 1-based node groups")
		}
		seen := map[int]bool{}
		for _, id := range append(append([]int(nil), f.GroupA...), f.GroupB...) {
			if id < 1 {
				return fmt.Errorf("partition-groups member %d is not 1-based", id)
			}
			if seen[id] {
				return fmt.Errorf("partition-groups member %d appears twice", id)
			}
			seen[id] = true
		}
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	if f.Count > 1 && f.Every <= 0 {
		return fmt.Errorf("%s repeats %d times but has no every", f.Kind, f.Count)
	}
	if f.Count < 0 {
		return fmt.Errorf("negative count")
	}
	if f.Group != 0 && !f.Kind.groupAddressed() {
		return fmt.Errorf("%s does not take a group target", f.Kind)
	}
	if (f.Reorder != 0 || f.ReorderEvery != 0) && f.Kind != FaultDegradeLinks {
		return fmt.Errorf("%s does not take reorder bursts (degrade-links only)", f.Kind)
	}
	return nil
}

// occurrences returns the fire times of one schedule entry, relative to
// the measurement start.
func (f Fault) occurrences() []time.Duration {
	n := f.Count
	if n < 1 {
		n = 1
	}
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = f.At.D() + time.Duration(k)*f.Every.D()
	}
	return out
}

// linkToggler is the slice of a netsim mesh the cut bookkeeping needs;
// both a single-group Network[raft.Message] and the sharded fabric's
// envelope-multiplexed mesh satisfy it.
type linkToggler interface {
	SetDown(from, to int, down bool)
}

// linkCuts refcounts directed-link cuts across one run's fault schedule,
// so overlapping faults compose: a link stays down until every fault that
// cut it has healed, instead of the first heal silently restoring a path
// another fault still needs severed.
type linkCuts struct {
	n    int
	nw   linkToggler
	refs map[int]int // from*n+to → active cuts
}

func newLinkCuts(c Cluster) *linkCuts {
	return &linkCuts{n: c.N(), nw: c.Network(), refs: map[int]int{}}
}

func (lc *linkCuts) cut(from, to int) {
	key := from*lc.n + to
	lc.refs[key]++
	if lc.refs[key] == 1 {
		lc.nw.SetDown(from, to, true)
	}
}

func (lc *linkCuts) heal(from, to int) {
	key := from*lc.n + to
	if lc.refs[key] == 0 {
		return
	}
	lc.refs[key]--
	if lc.refs[key] == 0 {
		lc.nw.SetDown(from, to, false)
	}
}

// cutNode / healNode cut or release both directions of every link
// touching id (0-based) — the refcounted equivalent of PartitionNode.
func (lc *linkCuts) cutNode(id int)  { lc.eachLink(id, lc.cut) }
func (lc *linkCuts) healNode(id int) { lc.eachLink(id, lc.heal) }

// cutInbound / healInbound handle the asymmetric (deaf-node) cut.
func (lc *linkCuts) cutInbound(id int) {
	lc.eachPeer(id, func(other int) { lc.cut(other, id) })
}
func (lc *linkCuts) healInbound(id int) {
	lc.eachPeer(id, func(other int) { lc.heal(other, id) })
}

func (lc *linkCuts) eachLink(id int, op func(from, to int)) {
	lc.eachPeer(id, func(other int) {
		op(id, other)
		op(other, id)
	})
}

func (lc *linkCuts) eachPeer(id int, fn func(other int)) {
	for other := 0; other < lc.n; other++ {
		if other != id {
			fn(other)
		}
	}
}

// armFaults schedules every fault of the spec on the cluster's engine,
// with fire times relative to start (virtual time). Targets are resolved
// at fire time — "the leader" means the leader at that instant — so a
// cascading schedule naturally chases leadership as it moves.
func armFaults(c Cluster, start time.Duration, faults []Fault) {
	if len(faults) == 0 {
		return
	}
	eng := c.Engine()
	lc := newLinkCuts(c)
	for _, f := range faults {
		f := f
		for occ, at := range f.occurrences() {
			occ := occ
			eng.Schedule(start+at, func() { fire(c, f, occ, lc) })
		}
	}
}

// armShardFaults schedules a sharded run's faults on the multi-cluster's
// shared engine, fire times relative to start. Rebalance kinds drive the
// group lifecycle (a move firing while an earlier one is still draining
// is skipped — the lifecycle runs one migration at a time; schedule
// occurrences far enough apart for the drain to converge). Link-level
// kinds cut the consolidated deployment's shared physical mesh once, so
// every group riding the affected links feels the fault — the
// consolidation contract that made them expressible here at all.
func armShardFaults(mc MultiCluster, start time.Duration, faults []Fault) {
	eng := mc.Engine()
	var lc *linkCuts
	cutsFor := func() *linkCuts {
		if lc == nil {
			nw := mc.PhysLinks()
			lc = &linkCuts{n: nw.N(), nw: nw, refs: map[int]int{}}
		}
		return lc
	}
	for _, f := range faults {
		f := f
		switch {
		case f.Group > 0 && f.Kind.groupAddressed():
			// Group-addressed process faults: the target is resolved as the
			// group's leader at each fire instant, so the fault chases
			// leadership — including into a group that is mid-migration.
			var cuts *linkCuts
			if f.Kind == FaultPartitionNode {
				cuts = cutsFor()
			}
			for _, at := range f.occurrences() {
				eng.Schedule(start+at, func() { fireGroupFault(eng, mc, f, cuts) })
			}
		case f.Kind.rebalance():
			for _, at := range f.occurrences() {
				eng.Schedule(start+at, func() {
					switch f.Kind {
					case FaultAddGroup:
						_ = mc.AddGroupLive(f.Deadline.D())
					case FaultRemoveGroup:
						_ = mc.RemoveGroupLive(f.Deadline.D())
					}
				})
			}
		case f.Kind.shardLink():
			nw, cuts := mc.PhysLinks(), cutsFor()
			for _, at := range f.occurrences() {
				eng.Schedule(start+at, func() { fireShardLink(eng, nw, f, cuts) })
			}
		}
	}
}

// fireGroupFault injects one group-addressed fault occurrence: the target
// is the group's current leader. A retired slot, a leaderless election
// window, or an already-frozen target skips the occurrence — there is
// nothing meaningful to hit, and a storm schedule must stay injectable at
// whatever state it finds.
func fireGroupFault(eng *sim.Engine, mc MultiCluster, f Fault, lc *linkCuts) {
	g := f.Group - 1
	if g >= mc.Groups() {
		return
	}
	lead := mc.GroupLeader(g)
	if lead == 0 {
		return
	}
	heal := func(fn func()) {
		if f.Duration > 0 {
			eng.After(f.Duration.D(), fn)
		}
	}
	switch f.Kind {
	case FaultPauseNode:
		if mc.GroupNodePaused(g, lead) {
			return
		}
		mc.PauseGroupNode(g, lead)
		heal(func() { mc.ResumeGroupNode(g, lead) })
	case FaultCrashNode:
		if mc.GroupNodePaused(g, lead) {
			return
		}
		mc.CrashGroupNode(g, lead)
		heal(func() { mc.RestartGroupNode(g, lead) })
	case FaultPartitionNode:
		// The leader's group-local identity maps 1:1 onto a physical node
		// of the consolidated mesh, so the cut severs that node — and with
		// it every co-located group's replica, the consolidation blast
		// radius a physical fault is meant to have.
		lc.cutNode(int(lead) - 1)
		heal(func() { lc.healNode(int(lead) - 1) })
	}
}

// fireShardLink injects one physical-link fault occurrence on the shared
// mesh and, when the fault has a Duration, schedules its heal.
func fireShardLink(eng *sim.Engine, nw *netsim.Network[netsim.Envelope[raft.Message]], f Fault, lc *linkCuts) {
	heal := func(fn func()) {
		if f.Duration > 0 {
			eng.After(f.Duration.D(), fn)
		}
	}
	switch f.Kind {
	case FaultLinkDown:
		lc.cut(f.From-1, f.To-1)
		lc.cut(f.To-1, f.From-1)
		heal(func() {
			lc.heal(f.From-1, f.To-1)
			lc.heal(f.To-1, f.From-1)
		})
	case FaultPartitionNode:
		lc.cutNode(f.Node - 1)
		heal(func() { lc.healNode(f.Node - 1) })
	case FaultPartitionGroups:
		cross := func(op func(from, to int)) {
			for _, a := range f.GroupA {
				for _, b := range f.GroupB {
					op(a-1, b-1)
					op(b-1, a-1)
				}
			}
		}
		cross(lc.cut)
		heal(func() { cross(lc.heal) })
	case FaultDegradeLinks:
		degradeLinks(eng, nw, f)
	}
}

// degradeLinks swaps every inter-node link's schedule for the fault's
// conditions and restores exactly what it displaced Duration later. It is
// generic over the mesh payload so the single-group runner and the
// sharded shared mesh inject identically. Overlapping degrade pulses
// restore last-writer-wins — schedule them disjoint.
func degradeLinks[T any](eng *sim.Engine, nw *netsim.Network[T], f Fault) {
	n := nw.N()
	type linkProfile struct {
		from, to int
		p        netsim.Profile
	}
	prev := make([]linkProfile, 0, n*(n-1))
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				prev = append(prev, linkProfile{from, to, nw.ProfileOf(from, to)})
			}
		}
	}
	nw.SetAllProfiles(netsim.Constant(netsim.Params{
		RTT: f.RTT.D(), Jitter: f.Jitter.D(), Loss: f.Loss,
		Dist: parseDist(f.Dist), Alpha: f.Alpha,
	}))
	if f.Duration > 0 {
		eng.After(f.Duration.D(), func() {
			for _, lp := range prev {
				nw.SetProfile(lp.from, lp.to, lp.p)
			}
		})
	}
	if f.Reorder > 0 {
		reorderBursts(eng, nw, f)
	}
}

// reorderShape is the Pareto shape of the gap between reorder bursts:
// heavy-tailed enough that bursts cluster (one congestion episode spawns
// several flushes close together, then a long quiet stretch) while
// keeping a finite mean gap.
const reorderShape = 1.5

// reorderBursts runs degrade-links' correlated-reordering schedule: for
// the fault's duration, mesh-wide reorder windows of length f.Reorder
// open at Pareto-distributed intervals with scale f.ReorderEvery. All
// draws come from the engine's RNG, so the burst times and the per-window
// permutations are a pure function of the run's seed.
func reorderBursts[T any](eng *sim.Engine, nw *netsim.Network[T], f Fault) {
	end := eng.Now() + f.Duration.D()
	var burst func()
	burst = func() {
		if eng.Now() >= end {
			return
		}
		window := f.Reorder.D()
		if left := end - eng.Now(); window > left {
			window = left // never hold packets past the degradation's heal
		}
		nw.ReorderAll(window)
		u := eng.Rand().Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		gap := time.Duration(float64(f.ReorderEvery.D()) * math.Pow(u, -1/reorderShape))
		if gap > f.Duration.D() {
			gap = f.Duration.D() // a tail draw past the fault just ends the schedule
		}
		eng.After(gap, burst)
	}
	burst()
}

// hasRebalance reports whether any fault drives the group lifecycle.
func hasRebalance(faults []Fault) bool {
	for _, f := range faults {
		if f.Kind.rebalance() {
			return true
		}
	}
	return false
}

// fire injects one fault occurrence and, when the fault has a Duration,
// schedules its heal.
func fire(c Cluster, f Fault, occ int, lc *linkCuts) {
	eng := c.Engine()
	heal := func(fn func()) {
		if f.Duration > 0 {
			eng.After(f.Duration.D(), fn)
		}
	}
	leaderID := func() (raft.ID, bool) {
		l := c.Leader()
		if l == nil {
			return 0, false
		}
		return l.ID(), true
	}
	switch f.Kind {
	case FaultPauseLeader:
		if id, ok := leaderID(); ok && !c.Paused(id) {
			c.Pause(id)
			heal(func() { c.Resume(id) })
		}
	case FaultCrashLeader:
		if id, ok := leaderID(); ok && !c.Paused(id) {
			c.Crash(id)
			heal(func() { c.Restart(id) })
		}
	case FaultPartitionLeader:
		if id, ok := leaderID(); ok {
			lc.cutNode(int(id - 1))
			c.Recorder().MarkNodeDown(eng.Now(), id)
			heal(func() { lc.healNode(int(id - 1)) })
		}
	case FaultAsymPartitionLeader:
		if id, ok := leaderID(); ok {
			lc.cutInbound(int(id - 1))
			c.Recorder().MarkNodeDown(eng.Now(), id)
			heal(func() { lc.healInbound(int(id - 1)) })
		}
	case FaultTransferLeader:
		if l := c.Leader(); l != nil {
			target := raft.ID(int(l.ID())%c.N() + 1)
			_ = l.TransferLeadership(target)
		}
	case FaultPauseNode:
		id := raft.ID(f.Node)
		if !c.Paused(id) {
			c.Pause(id)
			heal(func() { c.Resume(id) })
		}
	case FaultCrashNode:
		id := raft.ID(f.Node)
		if !c.Paused(id) {
			c.Crash(id)
			heal(func() { c.Restart(id) })
		}
	case FaultPartitionNode:
		id := raft.ID(f.Node)
		lc.cutNode(f.Node - 1)
		c.Recorder().MarkNodeDown(eng.Now(), id)
		heal(func() { lc.healNode(f.Node - 1) })
	case FaultLinkDown:
		lc.cut(f.From-1, f.To-1)
		lc.cut(f.To-1, f.From-1)
		heal(func() {
			lc.heal(f.From-1, f.To-1)
			lc.heal(f.To-1, f.From-1)
		})
	case FaultRollingRestart:
		id := raft.ID(occ%c.N() + 1)
		if !c.Paused(id) {
			c.Crash(id)
			heal(func() { c.Restart(id) })
		}
	case FaultClockSkew:
		id := raft.ID(f.Node)
		c.SetClockSkew(id, f.Offset.D(), f.Drift)
		heal(func() { c.SetClockSkew(id, 0, 0) })
	case FaultPartitionGroups:
		cross := func(op func(from, to int)) {
			for _, a := range f.GroupA {
				for _, b := range f.GroupB {
					op(a-1, b-1)
					op(b-1, a-1)
				}
			}
		}
		cross(lc.cut)
		heal(func() { cross(lc.heal) })
	case FaultDegradeLinks:
		// Snapshots every directed link's own schedule so heterogeneous
		// topologies (geo matrices) restore exactly.
		degradeLinks(eng, c.Network(), f)
	}
}
