package sim

import "time"

// Proc models a node's CPU as a single serial processor with a work queue.
// Every message handled and every timer fired consumes a configurable
// amount of service time; work that arrives while the processor is busy
// queues behind it. This is the substitute for the paper's `docker stats`
// CPU measurements and for the request-latency saturation curve of Fig. 5:
// utilization and queueing delay both fall out of the actual simulated
// message flow rather than an analytic formula.
//
// The processor serializes the node's event handlers, which also mirrors
// etcd's single raft goroutine.
type Proc struct {
	eng *Engine

	// busyUntil is the virtual time at which the processor drains the work
	// currently accepted. Work arriving at t begins at max(t, busyUntil).
	busyUntil time.Duration

	// busy accumulates total service time consumed, for utilization
	// accounting. windowBusy accumulates since the last TakeWindow call.
	busy       time.Duration
	windowBusy time.Duration

	// paused freezes the processor: work submitted (or completing) while
	// paused is dropped (a paused container's process is frozen and its
	// sockets overflow), matching the paper's `docker pause` failure mode.
	paused bool
}

// NewProc returns a processor bound to the engine's clock.
func NewProc(eng *Engine) *Proc {
	return &Proc{eng: eng}
}

// Exec schedules fn to run after the processor has worked off its current
// backlog plus cost service time; fn runs at the completion instant. A zero
// cost executes at max(now, busyUntil) — still serialized. Returns false if
// the processor is paused (the work is dropped).
func (p *Proc) Exec(cost time.Duration, fn func()) bool {
	return p.ExecNotify(cost, fn, func() {})
}

// ExecNotify behaves like Exec but calls dropped — immediately when the
// work is rejected outright, or at the completion instant when a pause
// landed between acceptance and execution — whenever fn will never run.
// Exec's silent skip models the frozen node itself; a caller acting for a
// remote client (which observes its RPC die with the frozen server) needs
// the notification to keep its accounting complete.
func (p *Proc) ExecNotify(cost time.Duration, fn, dropped func()) bool {
	done, ok := p.Reserve(cost)
	if !ok {
		dropped()
		return false
	}
	p.eng.Schedule(done, func() {
		if p.paused {
			dropped()
			return
		}
		fn()
	})
	return true
}

// Reserve accepts cost service time behind the current backlog and
// returns the instant it completes, leaving the caller to schedule the
// work there — typically a callback built once, so the hot path
// allocates nothing. That callback must itself skip the work if the
// processor is Paused by then, as ExecNotify's does. ok is false (and
// nothing is accounted) while the processor is paused.
func (p *Proc) Reserve(cost time.Duration) (done time.Duration, ok bool) {
	if p.paused {
		return 0, false
	}
	if cost < 0 {
		cost = 0
	}
	start := p.eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done = start + cost
	p.busyUntil = done
	p.busy += cost
	p.windowBusy += cost
	return done, true
}

// Charge accrues cost of work that completes logically "now" (e.g. firing
// a packet onto the wire): the processor's backlog and utilization grow,
// delaying future Exec work, but no callback is scheduled. No-op while
// paused.
func (p *Proc) Charge(cost time.Duration) {
	if p.paused || cost <= 0 {
		return
	}
	now := p.eng.Now()
	if p.busyUntil < now {
		p.busyUntil = now
	}
	p.busyUntil += cost
	p.busy += cost
	p.windowBusy += cost
}

// Pause freezes the processor: queued completions are suppressed and new
// work is rejected until Resume.
func (p *Proc) Pause() { p.paused = true }

// Resume unfreezes the processor. Work dropped while paused stays dropped;
// the backlog clock restarts from the current instant.
func (p *Proc) Resume() {
	p.paused = false
	if now := p.eng.Now(); p.busyUntil < now {
		p.busyUntil = now
	}
}

// Paused reports whether the processor is frozen.
func (p *Proc) Paused() bool { return p.paused }

// Busy returns total service time consumed since construction.
func (p *Proc) Busy() time.Duration { return p.busy }

// TakeWindowBusy returns service time consumed since the previous call and
// resets the window accumulator. Dividing by the wall window length yields
// the utilization of one core over that window.
func (p *Proc) TakeWindowBusy() time.Duration {
	b := p.windowBusy
	p.windowBusy = 0
	return b
}

// Backlog returns how much accepted work is still pending at the current
// instant (zero when idle).
func (p *Proc) Backlog() time.Duration {
	if d := p.busyUntil - p.eng.Now(); d > 0 {
		return d
	}
	return 0
}
