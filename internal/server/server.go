// Package server runs one Dynatune/Raft node on real hardware and wall
// clocks: it drives a raft.Node from a single event loop, uses the hybrid
// UDP/TCP transport, and applies commands to the kv store. Clients read
// and write over the binary protocol (internal/wireclient), either at a
// node directly or through the sharded BinFront; a separate HTTP listener
// serves only the admin /status page. It is the real-world counterpart
// of internal/cluster's simulated runtime — the raft.Node and tuner code
// are identical.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/server/batcher"
	"dynatune/internal/transport"
)

// Config configures a Server.
type Config struct {
	ID    raft.ID
	Peers map[raft.ID]transport.PeerAddr // all peers including self
	// Listen addresses; zero ports pick ephemeral ones.
	Listen transport.PeerAddr
	// HTTPListen is the admin address serving /status ("" disables it;
	// ":0" for ephemeral).
	HTTPListen string
	// BinListen is the binary client API address ("" disables it): the
	// only data path, pipelined length-prefixed requests over one
	// connection (see internal/wireclient).
	BinListen string
	// Tuner for this node (static baseline or dynatune).
	Tuner raft.Tuner
	// Tracer is optional.
	Tracer raft.Tracer
	// Logger defaults to a prefixed standard logger.
	Logger *log.Logger
	// ProposeTimeout bounds how long a PUT waits for commit (default 5s).
	ProposeTimeout time.Duration
	// BatchWindow is the group-commit window on the propose path:
	// concurrent commands arriving within it coalesce into ONE multi-op
	// raft entry (kv.OpBatch), cutting per-entry replication cost under
	// load. Zero means batcher.DefaultWindow; every node group-commits.
	BatchWindow time.Duration
	// Persister, when set, makes the node's term/vote/log durable
	// (typically a *storage.WAL); Restored resumes from a previous run's
	// recovered state. Both nil for a volatile node.
	Persister raft.Persister
	Restored  *raft.Restored
}

// Server is a running node.
type Server struct {
	cfg   Config
	lg    *log.Logger
	node  *raft.Node
	store *kv.Store
	tr    *transport.Transport
	httpl net.Listener
	hsrv  *http.Server
	bsrv  *binServer

	start time.Time

	// events serializes all node interaction onto the loop goroutine.
	events   chan func()
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// bat group-commits Propose calls (Config.BatchWindow).
	bat *batcher.Batcher
	// errProposeTO / errReadTO are the preallocated timeout errors the
	// deadline heap delivers — no per-request error or timer allocation.
	errProposeTO error
	errReadTO    error

	// Propose-amplification counters: client commands accepted vs raft
	// entries proposed for them. Written on the loop, read anywhere.
	clientOps atomic.Uint64
	entries   atomic.Uint64

	// loop-owned state
	timers  map[timerKey]*time.Timer
	rng     *rand.Rand
	pending map[uint64][]*batcher.Waiter // log index → commit waiters (batch order)
	// dheap + dtimer replace one time.After per in-flight request: every
	// waiter's deadline sits in ONE heap swept by ONE reused timer. All
	// deadlines are now+ProposeTimeout, so they are pushed in monotone
	// order and the timer only re-arms when the heap drains.
	dheap    batcher.DeadlineHeap
	dtimer   *time.Timer
	dtimerAt time.Time
}

type timerKey struct {
	kind raft.TimerKind
	peer raft.ID
}

// Start launches the node. Call Stop to shut down.
func Start(cfg Config) (*Server, error) {
	if cfg.Tuner == nil {
		return nil, errors.New("server: need a tuner")
	}
	if cfg.ProposeTimeout == 0 {
		cfg.ProposeTimeout = 5 * time.Second
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.New(log.Writer(), fmt.Sprintf("node[%d] ", cfg.ID), log.LstdFlags|log.Lmicroseconds)
	}
	s := &Server{
		cfg:          cfg,
		lg:           lg,
		store:        kv.NewStore(),
		start:        time.Now(),
		events:       make(chan func(), 4096),
		done:         make(chan struct{}),
		timers:       map[timerKey]*time.Timer{},
		rng:          rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(cfg.ID)<<32)),
		pending:      map[uint64][]*batcher.Waiter{},
		errProposeTO: fmt.Errorf("server: propose timed out after %v", cfg.ProposeTimeout),
		errReadTO:    fmt.Errorf("server: linearizable read timed out after %v", cfg.ProposeTimeout),
	}
	s.dtimer = time.AfterFunc(time.Hour, func() { s.exec(s.sweepDeadlines) })
	s.dtimer.Stop()
	s.bat = batcher.New(batcher.Config{
		Window: cfg.BatchWindow,
		Flush: func(ops []batcher.Op, _ batcher.FlushReason) {
			s.exec(func() { s.proposeOps(ops) })
		},
	})

	tr, err := transport.Start(transport.Config{
		ID:      cfg.ID,
		Listen:  cfg.Listen,
		Peers:   cfg.Peers,
		Logger:  lg,
		Handler: func(m raft.Message) { s.exec(func() { s.node.Step(m) }) },
	})
	if err != nil {
		return nil, err
	}
	s.tr = tr

	peers := make([]raft.ID, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		peers = append(peers, id)
	}
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		peers = append(peers, cfg.ID)
	}
	node, err := raft.NewNode(raft.Config{
		ID:           cfg.ID,
		Peers:        peers,
		Runtime:      (*runtime)(s),
		Tuner:        cfg.Tuner,
		Tracer:       cfg.Tracer,
		Persister:    cfg.Persister,
		Restored:     cfg.Restored,
		Apply:        s.onApply,
		SnapshotData: s.store.MarshalSnapshot,
		RestoreSnapshot: func(data []byte, index uint64) {
			if err := s.store.RestoreSnapshot(data, index); err != nil {
				lg.Printf("snapshot restore failed: %v", err)
			}
		},
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	s.node = node

	if cfg.HTTPListen != "" {
		ln, err := net.Listen("tcp", cfg.HTTPListen)
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("server: http listen: %w", err)
		}
		s.httpl = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/status", s.handleStatus)
		s.hsrv = &http.Server{Handler: mux}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				lg.Printf("http: %v", err)
			}
		}()
	}

	if cfg.BinListen != "" {
		bs, err := startBinServer(cfg.BinListen, s.handleBin, lg)
		if err != nil {
			if s.hsrv != nil {
				s.hsrv.Close()
			}
			tr.Close()
			return nil, err
		}
		s.bsrv = bs
	}

	s.wg.Add(1)
	go s.loop()
	s.exec(func() { s.node.Start() })
	return s, nil
}

// exec enqueues fn onto the event loop (drops after shutdown).
func (s *Server) exec(fn func()) {
	select {
	case s.events <- fn:
	case <-s.done:
	}
}

func (s *Server) loop() {
	defer s.wg.Done()
	compact := time.NewTicker(5 * time.Second)
	defer compact.Stop()
	for {
		select {
		case fn := <-s.events:
			fn()
			// Any event may carry the message that costs us leadership
			// (higher-term vote or append). Fail in-flight proposals
			// immediately so no batch waits out its full ProposeTimeout
			// on an entry the new leader may overwrite.
			s.abortIfNotLeader()
		case <-compact.C:
			s.node.CompactLog(1024)
		case <-s.done:
			return
		}
	}
}

func (s *Server) onApply(ents []raft.Entry) {
	s.store.Apply(ents)
	// Resolve in index order; within a batch entry, waiters were
	// registered in op order and all committed together.
	for _, e := range ents {
		if ws, ok := s.pending[e.Index]; ok {
			delete(s.pending, e.Index)
			for _, w := range ws {
				w.Resolve(nil)
			}
		}
	}
}

// errProposalAborted unwraps to raft.ErrNotLeader so the client sees
// StatusNotLeader and retries against the new leader; the per-command
// idempotence table absorbs the retry if the aborted entry commits
// anyway.
var errProposalAborted = fmt.Errorf("%w: proposal aborted by leadership change", raft.ErrNotLeader)

// abortIfNotLeader fails every registered commit waiter once this node
// is no longer leader (loop goroutine). Entries it proposed may still
// commit under the new leader — clients retry and dedupe — but they may
// equally be overwritten, so waiting is pointless either way.
func (s *Server) abortIfNotLeader() {
	if len(s.pending) == 0 || s.node.State() == raft.StateLeader {
		return
	}
	n := 0
	for idx, ws := range s.pending {
		delete(s.pending, idx)
		for _, w := range ws {
			w.Resolve(errProposalAborted)
			n++
		}
	}
	s.lg.Printf("aborted %d in-flight proposal(s) on leadership change", n)
}

// proposeOps replicates a finished batch as one raft entry (loop
// goroutine). A single op skips the OpBatch wrapper entirely, so an idle
// server's entries are plain commands and the amplification counters
// stay honest.
func (s *Server) proposeOps(ops []batcher.Op) {
	var data []byte
	if len(ops) == 1 {
		data = kv.Encode(ops[0].Cmd)
	} else {
		cmds := make([]kv.Command, len(ops))
		for i := range ops {
			cmds[i] = ops[i].Cmd
		}
		data = kv.Encode(kv.BatchCommand(cmds))
	}
	idx, err := s.node.Propose(data)
	if err != nil {
		for _, op := range ops {
			op.W.Resolve(err)
		}
		return
	}
	s.clientOps.Add(uint64(len(ops)))
	s.entries.Add(1)
	if s.store.AppliedIndex() >= idx {
		// Single-node clusters commit (and apply) synchronously inside
		// Propose — the entry is already durable before we could register
		// a waiter for it.
		for _, op := range ops {
			op.W.Resolve(nil)
		}
		return
	}
	ws := make([]*batcher.Waiter, len(ops))
	at := time.Now().Add(s.cfg.ProposeTimeout)
	for i, op := range ops {
		ws[i] = op.W
		s.dheap.Push(op.W, at, s.errProposeTO)
	}
	s.pending[idx] = ws
	s.armDeadline(at)
}

// armDeadline makes sure the sweep timer fires by at (loop goroutine).
// Deadlines arrive in monotone order, so an armed timer is already early
// enough and Reset is rare.
func (s *Server) armDeadline(at time.Time) {
	if !s.dtimerAt.IsZero() && !at.Before(s.dtimerAt) {
		return
	}
	s.dtimerAt = at
	s.dtimer.Reset(time.Until(at))
}

// sweepDeadlines expires due waiters and re-arms for the next deadline
// (loop goroutine, via dtimer).
func (s *Server) sweepDeadlines() {
	s.dtimerAt = time.Time{}
	if next := s.dheap.Expire(time.Now()); !next.IsZero() {
		s.armDeadline(next)
	}
}

// --- raft.Runtime (all methods invoked from the loop goroutine) ---

// runtime is Server viewed as a raft.Runtime; a distinct type keeps the
// Runtime methods out of Server's public API.
type runtime Server

func (r *runtime) Now() time.Duration { return time.Since(r.start) }
func (r *runtime) Rand() *rand.Rand   { return r.rng }

func (r *runtime) Send(m raft.Message) { r.tr.Send(m) }

func (r *runtime) SetTimer(kind raft.TimerKind, peer raft.ID, at time.Duration) {
	s := (*Server)(r)
	key := timerKey{kind, peer}
	if t, ok := s.timers[key]; ok {
		t.Stop()
	}
	delay := at - time.Since(s.start)
	if delay < 0 {
		delay = 0
	}
	var tm *time.Timer
	tm = time.AfterFunc(delay, func() {
		s.exec(func() {
			// A replaced timer's callback may already be queued when the
			// replacement happens; the identity check discards it.
			if cur, ok := s.timers[key]; ok && cur == tm {
				delete(s.timers, key)
				s.node.OnTimer(kind, peer)
			}
		})
	})
	s.timers[key] = tm
}

func (r *runtime) CancelTimer(kind raft.TimerKind, peer raft.ID) {
	s := (*Server)(r)
	key := timerKey{kind, peer}
	if t, ok := s.timers[key]; ok {
		t.Stop()
		delete(s.timers, key)
	}
}

// --- client API ---

// Status is the /status payload.
type Status struct {
	ID        raft.ID `json:"id"`
	State     string  `json:"state"`
	Term      uint64  `json:"term"`
	Leader    raft.ID `json:"leader"`
	Committed uint64  `json:"committed"`
	Applied   uint64  `json:"applied"`
	EtMs      float64 `json:"et_ms"`
	RandTOMs  float64 `json:"randomized_timeout_ms"`
	// GroupCommit reports propose batching (entries vs client commands,
	// batch depths, flush reasons).
	GroupCommit BatchStats `json:"group_commit"`
}

// BatchStats reports group-commit activity on the propose path.
type BatchStats struct {
	batcher.Stats
	// ClientOps counts commands accepted into the propose path; Entries
	// counts raft entries proposed for them. Their ratio is the propose
	// amplification — 1.0 when every batch holds one command, below 1 once
	// group commit coalesces.
	ClientOps uint64 `json:"client_ops"`
	Entries   uint64 `json:"entries"`
}

// ProposeAmp is raft entries per client command (0 when idle).
func (b BatchStats) ProposeAmp() float64 {
	if b.ClientOps == 0 {
		return 0
	}
	return float64(b.Entries) / float64(b.ClientOps)
}

// BatchStats snapshots the group-commit counters.
func (s *Server) BatchStats() BatchStats {
	return BatchStats{Stats: s.bat.Stats(), ClientOps: s.clientOps.Load(), Entries: s.entries.Load()}
}

// errShutdown is what in-flight requests see when Stop wins the race.
var errShutdown = errors.New("server: shut down")

// Propose replicates a command and waits for it to commit locally. It
// joins the open group-commit batch; the timeout comes from the shared
// deadline heap, not a per-call timer.
func (s *Server) Propose(cmd kv.Command) error {
	w := batcher.NewWaiter()
	s.bat.Add(cmd, w)
	select {
	case err := <-w.C():
		return err
	case <-s.done:
		return errShutdown
	}
}

// Get reads a key from the local store (leader reads are fresh up to the
// apply point, as in the paper's etcd usage).
func (s *Server) Get(key string) ([]byte, bool) { return s.store.Get(key) }

// ErrReadAborted reports a linearizable read cancelled by leadership loss;
// clients retry against the new leader.
var ErrReadAborted = errors.New("server: read aborted by leadership change")

// GetLinearizable reads a key with linearizable semantics: the value is
// served only after the leader confirmed its authority past the read's
// registration point. With lease=true the check-quorum lease short-cuts
// the quorum round when it still holds (etcd's default); the lease window
// is the election timeout, i.e. the *tuned* Et under Dynatune.
func (s *Server) GetLinearizable(key string, lease bool) ([]byte, bool, error) {
	if err := s.readBarrier(lease); err != nil {
		return nil, false, err
	}
	v, ok := s.store.Get(key)
	return v, ok, nil
}

// readBarrier blocks until this node's leadership is confirmed past the
// registration point (lease short-cut or full ReadIndex quorum round).
// Local store reads issued after it returns carry the leader-local read
// guarantee; the binary multiget amortizes one barrier over many keys.
func (s *Server) readBarrier(lease bool) error {
	w := batcher.NewWaiter()
	s.exec(func() {
		cb := func(_ uint64, ok bool) {
			if ok {
				w.Resolve(nil)
			} else {
				w.Resolve(ErrReadAborted)
			}
		}
		var err error
		if lease {
			if err = s.node.LeaseRead(cb); errors.Is(err, raft.ErrLeaseExpired) {
				err = s.node.ReadIndex(cb)
			}
		} else {
			err = s.node.ReadIndex(cb)
		}
		if err != nil {
			w.Resolve(err)
			return
		}
		at := time.Now().Add(s.cfg.ProposeTimeout)
		s.dheap.Push(w, at, s.errReadTO)
		s.armDeadline(at)
	})
	select {
	case err := <-w.C():
		return err
	case <-s.done:
		return errShutdown
	}
}

// Status snapshots the node state (loop-synchronized).
func (s *Server) Status() Status {
	ch := make(chan Status, 1)
	s.exec(func() {
		ch <- Status{
			ID:          s.node.ID(),
			State:       s.node.State().String(),
			Term:        s.node.Term(),
			Leader:      s.node.Lead(),
			Committed:   s.node.Log().Committed(),
			Applied:     s.node.Log().Applied(),
			EtMs:        float64(s.node.ElectionTimeoutBase()) / float64(time.Millisecond),
			RandTOMs:    float64(s.node.RandomizedTimeout()) / float64(time.Millisecond),
			GroupCommit: s.BatchStats(),
		}
	})
	select {
	case st := <-ch:
		return st
	case <-time.After(2 * time.Second):
		return Status{ID: s.cfg.ID, State: "unresponsive"}
	}
}

// Addrs returns the transport listen addresses.
func (s *Server) Addrs() transport.PeerAddr { return s.tr.Addrs() }

// HTTPAddr returns the admin /status address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpl == nil {
		return ""
	}
	return s.httpl.Addr().String()
}

// BinAddr returns the binary client API address ("" if disabled).
func (s *Server) BinAddr() string {
	if s.bsrv == nil {
		return ""
	}
	return s.bsrv.addr()
}

// SetPeer updates a peer's transport addresses.
func (s *Server) SetPeer(id raft.ID, pa transport.PeerAddr) { s.tr.SetPeer(id, pa) }

// Store exposes the kv state machine.
func (s *Server) Store() *kv.Store { return s.store }

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Status()) //nolint:errcheck // best-effort response body
}

// Stop shuts the server down. It is idempotent.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		if s.bsrv != nil {
			s.bsrv.close() // graceful: drains in-flight binary requests
		}
		// Close the batcher: queued and future Adds fail fast instead of
		// sitting in a window no one will flush.
		s.bat.Drain(errShutdown)
		close(s.done)
		if s.hsrv != nil {
			s.hsrv.Close()
		}
		s.tr.Close()
		s.wg.Wait()
		// Stop loop-owned timers; the loop has exited, so this is safe.
		s.dtimer.Stop()
		for _, t := range s.timers {
			t.Stop()
		}
	})
}
