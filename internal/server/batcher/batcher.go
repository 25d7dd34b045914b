// Package batcher implements server-side group commit for the real
// serving path: a propose batcher that coalesces concurrent client
// commands arriving within a short window (or up to an op/byte cap) into
// one multi-op raft entry, plus the shared commit-waiter machinery — a
// resolve-once Waiter and a deadline heap driven by a single reused
// timer — that replaces the per-request `time.After` allocation on every
// propose and linearizable read.
//
// The batcher itself is runtime-agnostic: it hands finished batches to a
// Flush callback and never touches the raft node, so it is testable
// without a cluster and reusable by any front that funnels commands into
// a single propose loop.
package batcher

import (
	"sync"
	"time"

	"dynatune/internal/kv"
)

// DefaultWindow mirrors the wireclient write-coalescing window: long
// enough that concurrent puts on a loaded server share an entry, short
// enough to be invisible next to a replication round trip.
const DefaultWindow = 200 * time.Microsecond

// Defaults for the batch caps.
const (
	DefaultMaxOps   = 128
	DefaultMaxBytes = 256 << 10
)

// FlushReason says why a batch left the accumulator.
type FlushReason uint8

const (
	// FlushWindow: the coalescing window expired.
	FlushWindow FlushReason = iota
	// FlushOps: the op-count cap filled.
	FlushOps
	// FlushBytes: the byte cap filled.
	FlushBytes
	// FlushDrain: Drain forced the queue out, either as a barrier
	// (Drain(nil)) or on shutdown or abort.
	FlushDrain
)

func (r FlushReason) String() string {
	switch r {
	case FlushWindow:
		return "window"
	case FlushOps:
		return "ops"
	case FlushBytes:
		return "bytes"
	case FlushDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// Op is one queued proposal: the command plus the waiter its client
// blocks on.
type Op struct {
	Cmd kv.Command
	W   *Waiter
}

// Config tunes a Batcher.
type Config struct {
	// Window is the coalescing window (default DefaultWindow).
	Window time.Duration
	// MaxOps flushes a batch early at this many ops (default 128).
	MaxOps int
	// MaxBytes flushes early once the encoded payload estimate passes
	// this (default 256 KiB) — a batch must stay well under the wire
	// frame cap.
	MaxBytes int
	// Flush receives each finished batch. It is called WITHOUT the
	// batcher lock, from the caller that tripped a cap, the window
	// timer's goroutine, or Drain.
	Flush func(ops []Op, reason FlushReason)
}

// Stats counts batching activity. Snapshot via Batcher.Stats.
type Stats struct {
	Ops         uint64 `json:"ops"`     // commands accepted
	Batches     uint64 `json:"batches"` // flushes
	MaxDepth    int    `json:"max_depth"`
	FlushWindow uint64 `json:"flush_window"`
	FlushOps    uint64 `json:"flush_ops"`
	FlushBytes  uint64 `json:"flush_bytes"`
	FlushDrain  uint64 `json:"flush_drain"`
}

// MeanDepth is ops per batch.
func (s Stats) MeanDepth() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// Batcher accumulates ops and flushes them as batches. Safe for
// concurrent Add from many client goroutines.
type Batcher struct {
	cfg Config

	mu        sync.Mutex
	ops       []Op
	bytes     int
	armed     bool
	closed    bool
	closedErr error
	stats     Stats

	// timer is the ONE reused flush timer: armed when the first op of a
	// batch arrives, consumed or left to fire harmlessly when a cap
	// flushes first. No per-request timer allocation anywhere.
	timer *time.Timer
}

// New builds a Batcher. cfg.Flush must be set.
func New(cfg Config) *Batcher {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultMaxOps
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Flush == nil {
		panic("batcher: Config.Flush is required")
	}
	b := &Batcher{cfg: cfg}
	b.timer = time.AfterFunc(time.Hour, b.onWindow)
	b.timer.Stop()
	return b
}

// opBytes estimates c's encoded footprint inside a batch payload.
func opBytes(c kv.Command) int {
	return 4 + 1 + 8 + 8 + 4 + len(c.Key) + 4 + len(c.Value)
}

// Add queues cmd. The op flushes with its batch when the window expires
// or a cap fills — whichever comes first. After Close, w resolves
// immediately with errClosed from Drain's error.
func (b *Batcher) Add(cmd kv.Command, w *Waiter) {
	b.mu.Lock()
	if b.closed {
		err := b.closedErr
		b.mu.Unlock()
		w.Resolve(err)
		return
	}
	b.ops = append(b.ops, Op{Cmd: cmd, W: w})
	b.bytes += opBytes(cmd)
	b.stats.Ops++
	var (
		flush  []Op
		reason FlushReason
	)
	switch {
	case len(b.ops) >= b.cfg.MaxOps:
		flush, reason = b.take(), FlushOps
	case b.bytes >= b.cfg.MaxBytes:
		flush, reason = b.take(), FlushBytes
	case len(b.ops) == 1:
		// First op of a new batch: arm the window.
		b.armed = true
		b.timer.Reset(b.cfg.Window)
	}
	if flush != nil {
		b.note(flush, reason)
	}
	b.mu.Unlock()
	if flush != nil {
		b.cfg.Flush(flush, reason)
	}
}

// take detaches the accumulated batch (b.mu held).
func (b *Batcher) take() []Op {
	ops := b.ops
	b.ops = nil
	b.bytes = 0
	if b.armed {
		b.armed = false
		b.timer.Stop()
	}
	return ops
}

// note records a flush in the stats (b.mu held).
func (b *Batcher) note(ops []Op, reason FlushReason) {
	b.stats.Batches++
	if len(ops) > b.stats.MaxDepth {
		b.stats.MaxDepth = len(ops)
	}
	switch reason {
	case FlushWindow:
		b.stats.FlushWindow++
	case FlushOps:
		b.stats.FlushOps++
	case FlushBytes:
		b.stats.FlushBytes++
	case FlushDrain:
		b.stats.FlushDrain++
	}
}

// onWindow fires when the coalescing window expires.
func (b *Batcher) onWindow() {
	b.mu.Lock()
	if !b.armed || len(b.ops) == 0 {
		// A cap flush beat the timer (or a stale fire raced Stop).
		b.mu.Unlock()
		return
	}
	ops := b.take()
	b.note(ops, FlushWindow)
	b.mu.Unlock()
	b.cfg.Flush(ops, FlushWindow)
}

// Drain flushes whatever is queued and, when err is non-nil, closes the
// batcher: queued ops resolve with err instead of flushing, and later
// Adds resolve immediately with err. Drain with err == nil just forces
// the pending batch out (a barrier, not a shutdown).
func (b *Batcher) Drain(err error) {
	b.mu.Lock()
	ops := b.take()
	if err != nil {
		b.closed = true
		b.closedErr = err
	}
	if len(ops) > 0 {
		b.note(ops, FlushDrain)
	}
	b.mu.Unlock()
	if len(ops) == 0 {
		return
	}
	if err != nil {
		for _, op := range ops {
			op.W.Resolve(err)
		}
		return
	}
	b.cfg.Flush(ops, FlushDrain)
}

// Stats snapshots the counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
