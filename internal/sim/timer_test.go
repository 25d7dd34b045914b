package sim

import (
	"math/rand"
	"testing"
	"time"
)

// timerFiring is one recorded event: a timer key (>= 0) or a plain
// script event (-1 - its index).
type timerFiring struct {
	at time.Duration
	id int
}

// timerHarness runs K timers on one engine, either eagerly (every reset
// cancels and reschedules) or as lazy Timers. Both must fire the
// identical (time, id) sequence.
type timerHarness struct {
	e      *Engine
	lazy   bool
	fired  []timerFiring
	armed  []bool
	dl     []time.Duration
	h      []Handle
	timers []Timer
	fns    []func()
}

func newTimerHarness(k int, lazy bool) *timerHarness {
	th := &timerHarness{
		e: NewEngine(1), lazy: lazy,
		armed: make([]bool, k), dl: make([]time.Duration, k),
		h: make([]Handle, k), timers: make([]Timer, k), fns: make([]func(), k),
	}
	for i := range th.fns {
		i := i
		th.fns[i] = func() { th.fire(i) }
		th.timers[i].Init(th.e, th.fns[i])
	}
	return th
}

func (th *timerHarness) set(k int, at time.Duration) {
	th.armed[k], th.dl[k] = true, at
	if th.lazy {
		th.timers[k].Set(at)
		return
	}
	th.e.Cancel(th.h[k])
	th.h[k] = th.e.Schedule(at, th.fns[k])
}

func (th *timerHarness) cancel(k int) {
	th.armed[k] = false
	if th.lazy {
		th.timers[k].Stop()
		return
	}
	th.e.Cancel(th.h[k])
}

func (th *timerHarness) fire(k int) {
	th.armed[k] = false
	th.fired = append(th.fired, timerFiring{th.e.Now(), k})
	// Even keys re-arm themselves from inside their own event, the way a
	// heartbeat timer does.
	if k%2 == 0 {
		th.set(k, th.e.Now()+time.Duration(k+1)*3*time.Millisecond)
	}
}

// timerOp is one scripted step: 0 arm, 1 re-arm later, 2 re-arm earlier,
// 3 cancel. n scales the delay; gap is the wait before the next step (zero
// gaps give equal-timestamp ties with whatever else is due then).
type timerOp struct {
	kind, key, n int
	gap          time.Duration
}

func timerScript(seed int64, keys, steps int) []timerOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]timerOp, steps)
	for i := range ops {
		ops[i] = timerOp{kind: rng.Intn(4), key: rng.Intn(keys), n: rng.Intn(20)}
		if rng.Intn(4) != 0 {
			ops[i].gap = time.Duration(rng.Intn(5)) * time.Millisecond
		}
	}
	return ops
}

// run plays the script as a chain of plain events, each scheduling the
// next, so plain-event sequence numbers interleave with timer tickets.
func (th *timerHarness) run(ops []timerOp) {
	var step func(i int) func()
	step = func(i int) func() {
		return func() {
			now := th.e.Now()
			th.fired = append(th.fired, timerFiring{now, -1 - i})
			op := ops[i]
			d := time.Duration(op.n) * time.Millisecond
			switch {
			case op.kind == 3:
				th.cancel(op.key)
			case op.kind == 1 && th.armed[op.key]:
				th.set(op.key, th.dl[op.key]+d)
			case op.kind == 2 && th.armed[op.key]:
				th.set(op.key, now+(th.dl[op.key]-now)*time.Duration(op.n)/20)
			default:
				th.set(op.key, now+d)
			}
			if i+1 < len(ops) {
				th.e.Schedule(now+op.gap, step(i+1))
			}
		}
	}
	th.e.Schedule(0, step(0))
	th.e.Run(time.Duration(len(ops)) * 5 * time.Millisecond)
}

// TestPropertyTimerMatchesEagerReschedule pins the equivalence Timer is
// built on: a reset that takes a ticket and, when later, defers to the
// queued event's re-push fires every timer and plain event at the same
// instant and in the same order as eager Cancel plus Schedule.
func TestPropertyTimerMatchesEagerReschedule(t *testing.T) {
	var eagerFired, lazyFired uint64
	for seed := int64(1); seed <= 200; seed++ {
		ops := timerScript(seed, 1+int(seed%6), 300)
		eager, lazy := newTimerHarness(6, false), newTimerHarness(6, true)
		eager.run(ops)
		lazy.run(ops)
		eagerFired += eager.e.Fired()
		lazyFired += lazy.e.Fired()
		if len(eager.fired) != len(lazy.fired) {
			t.Fatalf("seed %d: eager fired %d events, lazy %d", seed, len(eager.fired), len(lazy.fired))
		}
		for i := range eager.fired {
			if eager.fired[i] != lazy.fired[i] {
				t.Fatalf("seed %d: firing %d: eager %+v, lazy %+v", seed, i, eager.fired[i], lazy.fired[i])
			}
		}
		if eager.e.Now() != lazy.e.Now() {
			t.Fatalf("seed %d: clocks diverged: %v vs %v", seed, eager.e.Now(), lazy.e.Now())
		}
	}
	// Early firings that only re-push are the lazy side's extra events;
	// without any, the property was not exercised.
	if lazyFired <= eagerFired {
		t.Fatalf("no lazy re-push happened (fired %d vs eager %d)", lazyFired, eagerFired)
	}
}

func TestPushUnissuedTicketPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing an unissued ticket")
		}
	}()
	e.push(0, e.ticket()+1, func() {})
}

// TestTimerSetBeforeNowPanics pins that pushing a ticket before now
// panics, as Schedule does.
func TestTimerSetBeforeNowPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Millisecond, func() {})
	e.Run(time.Second)
	var tm Timer
	tm.Init(e, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic setting a timer in the past")
		}
	}()
	tm.Set(5 * time.Millisecond)
}

func TestTimerIsAllocationFree(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(e, func() {})
	allocs := testing.AllocsPerRun(100, func() {
		tm.Set(e.Now() + time.Millisecond)
		tm.Set(e.Now() + 2*time.Millisecond) // lazy move
		e.Run(e.Now() + 3*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Timer allocated %v times per set/move/fire", allocs)
	}
}
