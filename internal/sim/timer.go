package sim

import "time"

// Timer is a re-armable one-shot event with a lazy deadline, for owners
// that move a deadline far more often than it expires. Set always takes a
// ticket, so the engine's sequence numbers advance exactly as they would
// under Cancel plus Schedule. A move to a later deadline only records
// (deadline, ticket); the queued event, when it fires early, pushes
// itself again under that key. Events therefore fire at the same instants
// and in the same order as the eager way, while the heap holds one entry
// per armed timer (see the package comment).
//
// The zero Timer is unusable; Init it in place. It must not be copied
// afterwards: its prebuilt callback points at it.
type Timer struct {
	eng  *Engine
	fn   func()
	fire func() // t.onFire, built once by Init

	at, evAt   time.Duration // requested deadline / queued event's deadline
	seq, evSeq uint64        // their tickets
	ev         Handle        // zero when no event is queued
}

// Init binds t to eng; fn runs when a deadline expires.
func (t *Timer) Init(eng *Engine, fn func()) {
	*t = Timer{eng: eng, fn: fn}
	t.fire = t.onFire
}

// Set (re)arms the timer to fire at absolute time at, replacing any
// deadline it had. at must not lie before Now.
func (t *Timer) Set(at time.Duration) {
	t.at, t.seq = at, t.eng.ticket()
	if t.ev.Valid() && t.evAt <= at {
		return // the queued event fires first and re-pushes itself
	}
	t.eng.Cancel(t.ev)
	t.push()
}

// Stop disarms the timer. Stopping an idle timer is a no-op.
func (t *Timer) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = Handle{}
}

func (t *Timer) push() {
	t.ev = t.eng.push(t.at, t.seq, t.fire)
	t.evAt, t.evSeq = t.at, t.seq
}

func (t *Timer) onFire() {
	t.ev = Handle{}
	if t.seq != t.evSeq {
		t.push() // the deadline moved later while this event was queued
		return
	}
	t.fn()
}
