package cluster

import (
	"math/rand"
	"time"

	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/sim"
)

// nodeRT adapts one raft.Node to the simulated testbed: it implements
// raft.Runtime, serializes all of the node's work through a sim.Proc
// (modelling its CPU), routes messages over the netsim mesh, and applies
// the failure model (a paused node drops everything, like a paused
// container).
//
// A standalone runtime allocates nothing in steady state. A delivered
// message waits out its receive cost as a pooled stepJob, and each
// (kind, peer) timer is a timerSlot whose callbacks are built once. Timer
// deadlines are lazy (sim.Timer): raft resets the election timer on every
// heartbeat, and a reset to a later deadline only records it, so the heap
// holds one event per armed timer instead of one per reset.
type nodeRT struct {
	c    *Cluster
	id   raft.ID
	node *raft.Node
	proc *sim.Proc

	// timers holds the standalone runtime's timer slots, indexed by
	// slotIndex; jobs recycles delivery step jobs. Both are unused when
	// fabric-attached.
	timers []timerSlot
	jobs   []*stepJob

	// fnode / fabUID route this runtime through the consolidation fabric
	// when the cluster is one group of a multi-Raft deployment: sends go
	// into the node's per-peer batches and timers into the node's
	// consolidated tick table instead of the private mesh and per-timer
	// engine events. Nil for a standalone cluster.
	fnode  *fabricNode
	fabUID int

	// tuned enables the tuning-overhead cost components.
	tuned bool
	// hbClass is the delivery class for heartbeats and their responses
	// (UDP for Dynatune's hybrid transport, TCP for stock etcd).
	hbClass netsim.Class

	paused bool

	// skewOffset / skewDrift skew this node's election timer (the clock-skew
	// fault): each armed delay is scaled by (1+drift) and shifted by offset.
	// Heartbeat timers are untouched — the fault models NTP error on the
	// failure detector, not a wholesale slowdown of the process.
	skewOffset time.Duration
	skewDrift  float64

	// inbox stages fabric payloads queued behind a busy CPU (see
	// deliverRun). One drain event at a time is armed; runs staged while
	// it is pending just charge their CPU cost and ride the armed drain,
	// so a busy burst costs one engine event and zero per-run closures.
	// The drain/drop callbacks are built once at construction.
	inbox      []raft.Message
	inboxHead  int
	drainArmed bool
	drainFn    func()
	dropFn     func()

	// stats
	msgsSent, msgsRecv uint64
}

// stepJob is one delivered message waiting out its receive cost on the
// node's CPU. Jobs are pooled per runtime and own a callback built once,
// the same pattern as netsim's in-flight packets.
type stepJob struct {
	rt   *nodeRT
	m    raft.Message
	fire func()
}

// run steps the message unless the node froze while it queued, then
// returns the job to the pool.
func (j *stepJob) run() {
	rt := j.rt
	if !rt.proc.Paused() {
		rt.node.Step(j.m)
	}
	j.m = raft.Message{}
	rt.jobs = append(rt.jobs, j)
}

// timerSlot is one (kind, peer) timer of a standalone runtime: a lazy
// sim.Timer plus the step that runs the expiry on the node after its CPU
// cost, both built once.
type timerSlot struct {
	rt     *nodeRT
	kind   raft.TimerKind
	peer   raft.ID
	timer  sim.Timer
	stepFn func()
}

// fire is the timer's expiry. A paused node's expired timer is lost:
// Reserve refuses the work.
func (s *timerSlot) fire() {
	rt := s.rt
	if done, ok := rt.proc.Reserve(rt.c.cost.TimerFire); ok {
		rt.c.eng.Schedule(done, s.stepFn)
	}
}

// step runs the expired timer on the node, after its CPU cost.
func (s *timerSlot) step() {
	if !s.rt.proc.Paused() {
		s.rt.node.OnTimer(s.kind, s.peer)
	}
}

// slotIndex maps (kind, peer) into nodeRT.timers; peer is None or 1..N.
func (rt *nodeRT) slotIndex(kind raft.TimerKind, peer raft.ID) int {
	return int(kind)*(len(rt.c.rts)+1) + int(peer)
}

// initStandalone builds the timer slots and their callbacks (once, at
// cluster build) for a runtime on the cluster's private mesh.
func (rt *nodeRT) initStandalone() {
	per := len(rt.c.rts) + 1
	rt.timers = make([]timerSlot, 2*per)
	for i := range rt.timers {
		s := &rt.timers[i]
		s.rt, s.kind, s.peer = rt, raft.TimerKind(i/per), raft.ID(i%per)
		s.timer.Init(rt.c.eng, s.fire)
		s.stepFn = s.step
	}
}

var _ raft.Runtime = (*nodeRT)(nil)

func (rt *nodeRT) Now() time.Duration { return rt.c.eng.Now() }
func (rt *nodeRT) Rand() *rand.Rand   { return rt.c.eng.Rand() }

func (rt *nodeRT) Send(m raft.Message) {
	if rt.paused {
		return
	}
	rt.msgsSent++
	// Sending consumes CPU on this node (it delays this node's future
	// work) but does not delay the wire departure: the cost accrues to the
	// processor, the packet leaves now.
	rt.proc.Charge(rt.c.cost.sendCost(m, rt.tuned))
	cls := netsim.TCP
	if m.Type == raft.MsgHeartbeat || m.Type == raft.MsgHeartbeatResp {
		cls = rt.hbClass
	}
	if rt.fnode != nil {
		rt.fnode.send(rt.fabUID, cls, m)
		return
	}
	rt.c.net.Send(int(rt.id-1), int(m.To-1), cls, m)
}

func (rt *nodeRT) deliver(m raft.Message) {
	if rt.paused {
		return // frozen container: sockets overflow, packets die
	}
	rt.msgsRecv++
	done, ok := rt.proc.Reserve(rt.c.cost.recvCost(m, rt.tuned))
	if !ok {
		return
	}
	var j *stepJob
	if n := len(rt.jobs); n > 0 {
		j = rt.jobs[n-1]
		rt.jobs = rt.jobs[:n-1]
	} else {
		j = &stepJob{rt: rt}
		j.fire = j.run
	}
	j.m = m
	rt.c.eng.Schedule(done, j.fire)
}

// deliverRun is the fabric's receive path: one envelope's consecutive
// same-group payloads, delivered together. When the node's CPU is idle
// (and nothing is staged ahead) the run is stepped inside the caller's
// event — the envelope sink — charging each message's receive cost
// without per-message engine events or closures. Otherwise the payloads
// are staged in the replica's reusable inbox: the first staged run arms
// one drain event at the backlog's end, later runs charge their CPU cost
// and ride it, so a busy burst costs one engine event total and the
// envelope's slice is never retained.
func (rt *nodeRT) deliverRun(run []netsim.GroupMsg[raft.Message]) {
	if rt.paused {
		return // frozen container: sockets overflow, packets die
	}
	rt.msgsRecv += uint64(len(run))
	// The drainArmed check keeps FIFO order: a drain whose deadline has
	// arrived but whose event has not yet fired must still step its
	// staged payloads before anything newer runs inline.
	if !rt.drainArmed && rt.proc.Backlog() == 0 {
		for i := range run {
			rt.proc.Charge(rt.c.cost.recvCost(run[i].Msg, rt.tuned))
			rt.node.Step(run[i].Msg)
		}
		return
	}
	var total time.Duration
	for i := range run {
		total += rt.c.cost.recvCost(run[i].Msg, rt.tuned)
		rt.inbox = append(rt.inbox, run[i].Msg)
	}
	if rt.drainArmed {
		rt.proc.Charge(total)
		return
	}
	rt.drainArmed = true
	rt.proc.ExecNotify(total, rt.drainFn, rt.dropFn)
}

// initDrain builds the inbox drain callbacks (once, at cluster build).
// drainFn steps everything staged; payloads that landed after the drain
// was armed are processed here too — slightly earlier than their charged
// CPU completion, the price of coalescing a burst into one event. dropFn
// is the pause path: a frozen container's queued work is discarded.
func (rt *nodeRT) initDrain() {
	rt.drainFn = func() {
		rt.drainArmed = false
		for rt.inboxHead < len(rt.inbox) {
			m := rt.inbox[rt.inboxHead]
			rt.inboxHead++
			rt.node.Step(m)
		}
		rt.inbox = rt.inbox[:0]
		rt.inboxHead = 0
	}
	rt.dropFn = func() {
		rt.drainArmed = false
		rt.inbox = rt.inbox[:0]
		rt.inboxHead = 0
	}
}

func (rt *nodeRT) SetTimer(kind raft.TimerKind, peer raft.ID, at time.Duration) {
	if kind == raft.TimerElection && (rt.skewDrift != 0 || rt.skewOffset != 0) {
		now := rt.c.eng.Now()
		d := at - now
		if d < 0 {
			d = 0
		}
		d = time.Duration(float64(d)*(1+rt.skewDrift)) + rt.skewOffset
		if d < 0 {
			d = 0
		}
		at = now + d
	}
	if rt.fnode != nil {
		// Consolidated path: the node's fabric driver owns the deadline
		// (quantized onto the shared tick grid, after the skew transform
		// above so a skewed clock still lands on the grid).
		rt.fnode.setTimer(rt, kind, peer, at)
		return
	}
	rt.timers[rt.slotIndex(kind, peer)].timer.Set(at)
}

func (rt *nodeRT) CancelTimer(kind raft.TimerKind, peer raft.ID) {
	if rt.fnode != nil {
		rt.fnode.cancelTimer(rt.fabUID, kind, peer)
		return
	}
	rt.timers[rt.slotIndex(kind, peer)].timer.Stop()
}

// pause freezes the node (the paper's `docker pause` failure).
func (rt *nodeRT) pause() {
	rt.paused = true
	rt.proc.Pause()
}

// resume unfreezes the node. Timers that fired while frozen are gone, so
// the election timer is re-armed; a stale leader will step down via
// check-quorum or on the first higher-term message.
func (rt *nodeRT) resume() {
	rt.paused = false
	rt.proc.Resume()
	rt.node.Start()
}

// dropTimers cancels and forgets every armed timer — a crashed process's
// timers must never drive its successor.
func (rt *nodeRT) dropTimers() {
	if rt.fnode != nil {
		rt.fnode.dropTimers(rt.fabUID)
		return
	}
	for i := range rt.timers {
		rt.timers[i].timer.Stop()
	}
}
