package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynatune/internal/raft"
)

// Tracing is done from outside the program: spans are recorded in the
// benchmark's own files around its calls into each layer, and counts come
// from wrappers passed through hooks the program already has. Spans stay
// in memory and are written as JSON lines when the run ends.

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root
	Req    uint64 `json:"req"`    // shared by the spans of one request; 0 outside requests
	Name   string `json:"name"`   // layer.what
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"` // both relative to the run's start
}

// spanRec collects spans. A nil *spanRec is the untraced run: callers
// guard span construction with `rec != nil`, and addAll on nil is a no-op.
type spanRec struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

func (r *spanRec) newID() uint64 { return r.next.Add(1) }

// span builds (but does not store) a span; hot loops batch them locally
// and hand them over once with addAll.
func (r *spanRec) span(name string, parent, req uint64, start, end time.Time) span {
	return span{ID: r.newID(), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
}

func (r *spanRec) addAll(spans []span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// phase records fn as one span and returns its error; the traced run's
// probes are each one phase.
func (r *spanRec) phase(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	r.addAll([]span{r.span(name, 0, 0, start, time.Now())})
	return err
}

func (r *spanRec) writeJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// eventTracer is the raft.Tracer the traced fleets get: it turns election
// events into instant spans and keeps the wall-clock instant of each, so
// the failover probe can read detection (first timeout after the kill)
// without touching the node. Trace runs on a node's event loop and must
// not call back into it.
type eventTracer struct {
	rec *spanRec

	mu     sync.Mutex
	events []tracedEvent
}

type tracedEvent struct {
	at   time.Time
	kind raft.EventKind
	node raft.ID
}

func (t *eventTracer) Trace(ev raft.Event) {
	switch ev.Kind {
	case raft.EventTimeout, raft.EventLeaderElected, raft.EventTermChange, raft.EventSplitVote:
	default:
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.events = append(t.events, tracedEvent{now, ev.Kind, ev.Node})
	t.mu.Unlock()
	t.rec.addAll([]span{t.rec.span("raft."+ev.Kind.String(), 0, 0, now, now)})
}

// firstAfter is the instant of the first event of kind at or after t.
func (t *eventTracer) firstAfter(kind raft.EventKind, at time.Time) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		if e.kind == kind && !e.at.Before(at) {
			return e.at, true
		}
	}
	return time.Time{}, false
}

// countingPersister wraps a raft.Persister (a storage.WAL) to count what
// the durable path would add per client op: append calls, entries, and
// the time the node's loop spent blocked in them.
type countingPersister struct {
	raft.Persister
	appends atomic.Uint64
	entries atomic.Uint64
	busyNs  atomic.Int64
}

func (p *countingPersister) AppendEntries(entries []raft.Entry) error {
	t0 := time.Now()
	err := p.Persister.AppendEntries(entries)
	p.busyNs.Add(int64(time.Since(t0)))
	p.appends.Add(1)
	p.entries.Add(uint64(len(entries)))
	return err
}
