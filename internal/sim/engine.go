// Package sim provides a deterministic discrete-event simulation engine
// with a virtual clock.
//
// The engine is the substrate on which the whole evaluation testbed runs:
// the network simulator schedules packet deliveries, node runtimes schedule
// Raft timers, and the failure injector schedules leader pauses — all as
// events on one totally ordered queue. Virtual time makes thousand-trial
// experiments run in milliseconds and removes clock-skew concerns entirely,
// which is the same reason the paper ran its measured experiments on a
// single physical host.
//
// Determinism: all randomness used by a simulation must come from the
// engine's Rand (seeded at construction), and events at equal timestamps
// fire in scheduling order (a monotonically increasing sequence number
// breaks ties). Given the same seed and inputs a run is bit-for-bit
// reproducible.
//
// # Implementation
//
// The scheduler is allocation-free on its steady-state hot path. Events
// live in an index-based arena recycled through a free list; a Handle is
// an (arena slot, generation) pair, and the generation — bumped every time
// a slot is recycled — makes Cancel safe against reuse: cancelling a
// handle whose event already fired (or whose slot now hosts a different
// event) is a guaranteed no-op. Ordering is kept by a hand-rolled 4-ary
// min-heap of (time, seq, slot) entries: keys are stored inline in the
// heap nodes, so comparisons touch no pointers and there is none of
// container/heap's interface boxing or dispatch.
//
// Cancellation policy: Cancel is lazy — the event's heap entry stays put
// and is skipped (and its slot freed) when it reaches the root. Raft
// timer churn can pile cancelled entries up faster than they surface, so
// the engine compacts eagerly: whenever the cancelled fraction of the
// queue exceeds one half (and at least compactMinCancelled entries are
// dead), the heap is filtered in place and re-heapified in O(n). Amortized
// against the cancellations that triggered it, compaction is O(1) per
// cancel, and it bounds queue memory at roughly twice the live event
// count.
//
// # Tickets and lazy deadlines
//
// Scheduling is "take a ticket, then push": ticket draws the next
// sequence number and push queues an event under an (at, ticket) key.
// Splitting the two lets Timer defer the push. Raft re-arms its election
// timer on every heartbeat, nearly always to a later deadline, and the
// eager way (Cancel plus Schedule) leaves one dead heap entry per reset.
// Timer.Set takes the ticket at reset time but only records (deadline,
// ticket); when the already-queued event fires early, it pushes itself
// again under that recorded key. A reset to an earlier deadline still
// cancels and pushes at once. The event then sorts exactly where the eager
// reschedule would have, so the event order is unchanged, while the heap
// keeps one entry per armed timer. The cost is one extra firing per
// deadline move, which Fired counts. The simulator's standalone node
// runtime (internal/cluster) keeps its raft timers this way.
//
// Proc.Reserve is the matching half for CPU work: it books service time
// and returns the completion instant, and the caller schedules a callback
// it built once. Per-message and per-timer work then allocates no
// closure. Proc.ExecNotify is Reserve plus a wrapper closure, for callers
// off the hot path.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles stay cheap, comparable values: a slot index
// and the generation the slot had when the event was scheduled.
type Handle struct {
	slot uint32 // arena index + 1; 0 means no event
	gen  uint32
}

// Valid reports whether the handle refers to a scheduled (possibly already
// fired) event.
func (h Handle) Valid() bool { return h.slot != 0 }

// event is one arena slot. Ordering keys (time, seq) live in the heap
// entry, not here; the slot holds only what firing and cancelling need.
type event struct {
	fn       func()
	gen      uint32
	canceled bool
}

// entry is one 4-ary heap node with its ordering keys inline.
type entry struct {
	at   time.Duration
	seq  uint64
	slot uint32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// compactMinCancelled floors the eager-compaction trigger so that small
// queues never pay for compaction: with fewer dead entries than this, lazy
// skipping at the root is cheaper than a rebuild.
const compactMinCancelled = 256

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation runs entirely on the caller's goroutine.
type Engine struct {
	now       time.Duration
	seq       uint64
	heap      []entry
	arena     []event
	free      []uint32 // free list of recycled arena slots
	live      int      // scheduled, not cancelled
	lazy      int      // cancelled entries still occupying the heap
	rng       *rand.Rand
	fired     uint64
	cancelled uint64 // total Cancels that hit a live event (instrumentation)
	halted    bool
}

// NewEngine returns an engine whose clock starts at zero and whose
// randomness is derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far (for instrumentation
// and runaway detection in tests). A Timer's early firing, the one that
// only pushes it again, counts as an event.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live scheduled events. Lazily cancelled
// events still occupying the queue are not counted.
func (e *Engine) Pending() int { return e.live }

// Cancelled returns the total number of events cancelled over the engine's
// lifetime (instrumentation for timer-churn analysis).
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// queueLen returns the raw queue occupancy including lazily cancelled
// entries — the quantity the compaction policy bounds.
func (e *Engine) queueLen() int { return len(e.heap) }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past (at < Now) is a programming error and panics: the discrete-event
// model has no way to run an event before the current instant.
func (e *Engine) Schedule(at time.Duration, fn func()) Handle {
	return e.push(at, e.ticket(), fn)
}

// ticket takes the next tie-break sequence number without scheduling
// anything. An event later pushed with the ticket sorts exactly where a
// Schedule made at the moment the ticket was taken would have.
func (e *Engine) ticket() uint64 {
	e.seq++
	return e.seq
}

// push registers fn to run at (at, ticket), where ticket came from
// ticket. Like Schedule, pushing before Now panics; so does a ticket the
// engine never issued.
func (e *Engine) push(at time.Duration, ticket uint64, fn func()) Handle {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: Schedule at %v before now %v", at, e.now))
	}
	if ticket == 0 || ticket > e.seq {
		panic(fmt.Sprintf("sim: push with unissued ticket %d", ticket))
	}
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		slot = uint32(len(e.arena) - 1)
	}
	ev := &e.arena[slot]
	ev.fn = fn
	ev.canceled = false
	e.heapPush(entry{at: at, seq: ticket, slot: slot})
	e.live++
	return Handle{slot: slot + 1, gen: ev.gen}
}

// After registers fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or already cancelled event is a no-op: the generation check makes
// this hold even after the event's slot has been recycled for a newer
// event. Cancellation is lazy — see the package comment for the eager
// compaction that keeps dead entries from accumulating.
func (e *Engine) Cancel(h Handle) {
	if h.slot == 0 {
		return
	}
	slot := h.slot - 1
	if int(slot) >= len(e.arena) {
		return
	}
	ev := &e.arena[slot]
	if ev.gen != h.gen || ev.canceled || ev.fn == nil {
		return
	}
	ev.canceled = true
	ev.fn = nil // release the closure now; the slot frees on pop/compact
	e.live--
	e.lazy++
	e.cancelled++
	if e.lazy >= compactMinCancelled && e.lazy*2 >= len(e.heap) {
		e.compact()
	}
}

// compact filters cancelled entries out of the heap in place, frees their
// slots, and re-establishes the heap property bottom-up in O(n).
func (e *Engine) compact() {
	q := e.heap[:0]
	for _, ent := range e.heap {
		if e.arena[ent.slot].canceled {
			e.freeSlot(ent.slot)
		} else {
			q = append(q, ent)
		}
	}
	e.heap = q
	e.lazy = 0
	for i := (len(q) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// freeSlot recycles an arena slot, bumping its generation so outstanding
// handles to the departed event go stale.
func (e *Engine) freeSlot(slot uint32) {
	ev := &e.arena[slot]
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	e.free = append(e.free, slot)
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed (false means the
// queue is empty).
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		e.heapPopRoot()
		if e.arena[ent.slot].canceled {
			e.lazy--
			e.freeSlot(ent.slot)
			continue
		}
		fn := e.arena[ent.slot].fn
		e.freeSlot(ent.slot)
		e.live--
		e.now = ent.at
		e.fired++
		fn()
		return true
	}
	return false
}

// Run executes events in timestamp order until the queue is empty, the
// engine is halted, or the next event lies strictly after until. The clock
// is left at the time of the last executed event (or advanced to until if
// the queue outlives the horizon).
func (e *Engine) Run(until time.Duration) {
	e.halted = false
	for !e.halted {
		ent, ok := e.peek()
		if !ok || ent.at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RunWhile executes events while cond returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	e.halted = false
	for !e.halted && cond() {
		if !e.Step() {
			return
		}
	}
}

// peek returns the next live entry, discarding cancelled ones that have
// surfaced at the root.
func (e *Engine) peek() (entry, bool) {
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if !e.arena[ent.slot].canceled {
			return ent, true
		}
		e.heapPopRoot()
		e.lazy--
		e.freeSlot(ent.slot)
	}
	return entry{}, false
}

// --- 4-ary min-heap on (at, seq) ---
//
// Children of node i are 4i+1..4i+4. A 4-ary layout halves the tree depth
// of a binary heap, trading slightly more comparisons per level for far
// fewer cache-missing levels — the winning trade for the sift-down-heavy
// pop pattern of an event queue.

func (e *Engine) heapPush(ent entry) {
	e.heap = append(e.heap, ent)
	q := e.heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(ent, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ent
}

func (e *Engine) heapPopRoot() {
	q := e.heap
	n := len(q) - 1
	q[0] = q[n]
	e.heap = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(i int) {
	q := e.heap
	n := len(q)
	ent := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(q[j], q[m]) {
				m = j
			}
		}
		if !entryLess(q[m], ent) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ent
}
