// Package transport carries raft messages over real networks using the
// paper's hybrid scheme (§III-E): heartbeats and their responses travel
// as UDP datagrams (loss-tolerant, measurement-friendly, no head-of-line
// blocking), while all consensus traffic (appends, votes) uses
// length-prefixed frames on per-peer TCP streams.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/wire"
)

// PeerAddr is one node's pair of listen addresses.
type PeerAddr struct {
	TCP string
	UDP string
}

// Config configures a Transport.
type Config struct {
	// ID is the local node.
	ID raft.ID
	// Listen holds the local listen addresses (host:port; port 0 picks
	// ephemeral ports, exposed via Addrs after Start).
	Listen PeerAddr
	// Peers maps every other node to its addresses. It may be extended
	// with SetPeer after Start (e.g. once ephemeral ports are known).
	Peers map[raft.ID]PeerAddr
	// Handler receives every inbound message. It is called from multiple
	// goroutines; callers serialize into their event loop.
	Handler func(raft.Message)
	// Logger, if nil, defaults to the standard logger with a node prefix.
	Logger *log.Logger
	// DialTimeout bounds outbound TCP connection attempts (default 2s).
	DialTimeout time.Duration
}

// Transport is a live hybrid UDP/TCP endpoint. Safe for concurrent use.
type Transport struct {
	cfg       Config
	lg        *log.Logger
	tcp       net.Listener
	udp       net.PacketConn
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	peers    map[raft.ID]PeerAddr
	conns    map[raft.ID]*outConn
	uaddr    map[raft.ID]*net.UDPAddr
	accepted map[net.Conn]struct{}

	// drops counts messages dropped because a peer was unreachable.
	drops uint64
}

const (
	// outQueueMax bounds the per-peer send queue. Sends never touch the
	// socket: they enqueue and a per-peer writer goroutine drains the
	// queue in bursts, so the queue buffers the healthy path as well as
	// reconnect windows. Overflow drops the oldest first (raft prefers
	// fresh state over stale retransmits, and retransmits anything that
	// mattered).
	outQueueMax = 4096
	// Redial pacing: capped exponential with jitter. The first retry is
	// nearly immediate so transient breaks heal within a heartbeat; a
	// peer that stays down costs one dial per dialBackoffMax, not a
	// storm.
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

type outConn struct {
	to     raft.ID
	notify chan struct{} // cap 1; kicks the writer goroutine

	mu      sync.Mutex
	c       net.Conn
	w       *bufio.Writer
	queue   []raft.Message
	running bool // writer goroutine alive
	closed  bool
}

// Start opens the listeners and begins serving. The returned transport
// must be Closed.
func Start(cfg Config) (*Transport, error) {
	if cfg.ID == raft.None {
		return nil, errors.New("transport: need an ID")
	}
	if cfg.Handler == nil {
		return nil, errors.New("transport: need a Handler")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.New(log.Writer(), fmt.Sprintf("transport[%d] ", cfg.ID), log.LstdFlags|log.Lmicroseconds)
	}
	tcpLn, err := net.Listen("tcp", cfg.Listen.TCP)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen: %w", err)
	}
	udpConn, err := net.ListenPacket("udp", cfg.Listen.UDP)
	if err != nil {
		tcpLn.Close()
		return nil, fmt.Errorf("transport: udp listen: %w", err)
	}
	t := &Transport{
		cfg:      cfg,
		lg:       lg,
		tcp:      tcpLn,
		udp:      udpConn,
		done:     make(chan struct{}),
		peers:    map[raft.ID]PeerAddr{},
		conns:    map[raft.ID]*outConn{},
		uaddr:    map[raft.ID]*net.UDPAddr{},
		accepted: map[net.Conn]struct{}{},
	}
	for id, pa := range cfg.Peers {
		t.SetPeer(id, pa)
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.udpLoop()
	return t, nil
}

// Addrs returns the bound listen addresses (useful with ephemeral ports).
func (t *Transport) Addrs() PeerAddr {
	return PeerAddr{TCP: t.tcp.Addr().String(), UDP: t.udp.LocalAddr().String()}
}

// SetPeer registers or updates a peer's addresses.
func (t *Transport) SetPeer(id raft.ID, pa PeerAddr) {
	t.mu.Lock()
	t.peers[id] = pa
	delete(t.uaddr, id) // re-resolve lazily
	oc := t.conns[id]
	delete(t.conns, id)
	t.mu.Unlock()
	// Close outside t.mu: oc.send acquires oc.mu then t.mu, so closing
	// under t.mu would invert the lock order and deadlock.
	if oc != nil {
		oc.close()
	}
}

// Drops returns how many messages were dropped for unreachable peers.
func (t *Transport) Drops() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Send transmits m to m.To, choosing UDP for heartbeat traffic and TCP
// otherwise. Failures are dropped silently after logging — raft is built
// for lossy links.
func (t *Transport) Send(m raft.Message) {
	if m.Type == raft.MsgHeartbeat || m.Type == raft.MsgHeartbeatResp {
		t.sendUDP(m)
		return
	}
	t.sendTCP(m)
}

func (t *Transport) sendUDP(m raft.Message) {
	addr := t.udpAddr(m.To)
	if addr == nil {
		t.drop(m, "no udp address")
		return
	}
	if _, err := t.udp.WriteTo(wire.Encode(m), addr); err != nil {
		t.drop(m, err.Error())
	}
}

func (t *Transport) udpAddr(id raft.ID) *net.UDPAddr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.uaddr[id]; ok {
		return a
	}
	pa, ok := t.peers[id]
	if !ok {
		return nil
	}
	a, err := net.ResolveUDPAddr("udp", pa.UDP)
	if err != nil {
		return nil
	}
	t.uaddr[id] = a
	return a
}

func (t *Transport) sendTCP(m raft.Message) {
	oc := t.conn(m.To)
	if oc == nil {
		t.drop(m, "no tcp address")
		return
	}
	oc.send(t, m)
}

func (t *Transport) conn(id raft.ID) *outConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.peers[id]; !ok {
		return nil
	}
	oc, ok := t.conns[id]
	if !ok {
		oc = &outConn{to: id, notify: make(chan struct{}, 1)}
		t.conns[id] = oc
	}
	return oc
}

// send enqueues m for the peer's writer goroutine and returns without
// touching the network. Raft event loops call Send synchronously from
// broadcastAppend; if that write could block on a full TCP buffer while
// the peer's loop was blocked writing back to us, the two nodes would
// deadlock with full socket buffers in both directions. All socket I/O
// (dial, write, flush, backoff) therefore lives on the per-peer writer,
// and callers only ever pay an enqueue.
func (oc *outConn) send(t *Transport, m raft.Message) {
	oc.mu.Lock()
	if oc.closed {
		oc.mu.Unlock()
		t.drop(m, "conn closed")
		return
	}
	oc.enqueueLocked(t, m)
	if !oc.running {
		// Don't start a writer while the transport is shutting down: a
		// wg.Add racing wg.Wait would panic, and the queue dies with the
		// transport anyway.
		select {
		case <-t.done:
			oc.queue = nil
			oc.mu.Unlock()
			return
		default:
		}
		oc.running = true
		t.wg.Add(1)
		go oc.writeLoop(t)
	}
	oc.mu.Unlock()
	select {
	case oc.notify <- struct{}{}:
	default:
	}
}

// enqueueLocked buffers m for the writer, evicting the oldest message
// when the queue is full; oc.mu held. Eviction reslices the head instead
// of shifting the queue, so a Send to a stalled peer costs O(1)
// amortized: append reallocates only once the head has walked off the
// backing array's spare capacity.
func (oc *outConn) enqueueLocked(t *Transport, m raft.Message) {
	if len(oc.queue) >= outQueueMax {
		dropped := oc.queue[0]
		oc.queue[0] = raft.Message{} // release its entries to the GC
		oc.queue = oc.queue[1:]
		t.drop(dropped, "send queue full")
	}
	oc.queue = append(oc.queue, m)
}

// writeLoop owns the peer's socket: it dials with capped exponential
// backoff, drains the queue in bursts (one Flush per burst, not per
// frame), and on a write error requeues the unsent tail for the next
// connection. It exits when the outConn is closed or the transport
// shuts down.
func (oc *outConn) writeLoop(t *Transport) {
	defer t.wg.Done()
	fails := 0
	for {
		oc.mu.Lock()
		if oc.closed {
			oc.mu.Unlock()
			return
		}
		if len(oc.queue) == 0 {
			oc.mu.Unlock()
			select {
			case <-oc.notify:
				continue
			case <-t.done:
				oc.dropQueue(t, "transport closed")
				return
			}
		}
		if oc.c == nil {
			oc.mu.Unlock()
			c, err := t.dial(oc.to)
			if err != nil {
				fails++
				if !backoffWait(t, fails) {
					oc.dropQueue(t, "transport closed")
					return
				}
				continue
			}
			fails = 0
			oc.mu.Lock()
			if oc.closed {
				oc.mu.Unlock()
				c.Close()
				return
			}
			oc.c = c
			oc.w = bufio.NewWriter(c)
			oc.mu.Unlock()
			continue
		}
		// Detach the queued burst and write it without holding mu, so a
		// slow or blocked socket never blocks senders.
		burst := oc.queue
		oc.queue = nil
		c, w := oc.c, oc.w
		oc.mu.Unlock()

		var werr error
		for _, m := range burst {
			if werr = wire.WriteFrame(w, m); werr != nil {
				break
			}
		}
		if werr == nil {
			werr = w.Flush()
		}
		if werr == nil {
			continue
		}
		// Requeue the whole burst ahead of anything enqueued during the
		// write: a failed flush leaves no way to tell which frames hit
		// the wire, and raft tolerates the resulting duplicates but not
		// a systematically dropped tail.
		oc.mu.Lock()
		if oc.c == c {
			oc.resetLocked()
		}
		oc.queue = append(burst, oc.queue...)
		if over := len(oc.queue) - outQueueMax; over > 0 {
			for _, m := range oc.queue[:over] {
				t.drop(m, "send queue full")
			}
			oc.queue = oc.queue[over:]
		}
		oc.mu.Unlock()
	}
}

// dial connects to a peer by id (no locks held across the dial).
func (t *Transport) dial(id raft.ID) (net.Conn, error) {
	t.mu.Lock()
	pa := t.peers[id]
	t.mu.Unlock()
	c, err := net.DialTimeout("tcp", pa.TCP, t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return c, nil
}

// backoffWait sleeps the capped-exponential redial delay with jitter
// over [d/2, d) (desynchronizes peers redialing a node that just
// restarted); it returns false when the transport shut down mid-wait.
func backoffWait(t *Transport, fails int) bool {
	d := dialBackoffBase << (fails - 1)
	if fails > 16 || d > dialBackoffMax || d <= 0 {
		d = dialBackoffMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	select {
	case <-time.After(d):
		return true
	case <-t.done:
		return false
	}
}

func (oc *outConn) dropQueue(t *Transport, why string) {
	oc.mu.Lock()
	q := oc.queue
	oc.queue = nil
	oc.mu.Unlock()
	for _, m := range q {
		t.drop(m, why)
	}
}

func (oc *outConn) close() {
	oc.mu.Lock()
	oc.closed = true
	oc.queue = nil // queued messages die with the conn; raft retransmits
	oc.resetLocked()
	oc.mu.Unlock()
	select {
	case oc.notify <- struct{}{}: // wake the writer so it can exit
	default:
	}
}

func (oc *outConn) resetLocked() {
	if oc.c != nil {
		oc.c.Close()
		oc.c = nil
		oc.w = nil
	}
}

func (t *Transport) drop(m raft.Message, why string) {
	t.mu.Lock()
	t.drops++
	n := t.drops
	t.mu.Unlock()
	if n <= 8 || n%256 == 0 {
		t.lg.Printf("drop %v→%d %v: %s", m.Type, m.To, m.Term, why)
	}
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.tcp.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				t.lg.Printf("accept: %v", err)
				return
			}
		}
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

func (t *Transport) serveConn(c net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	t.accepted[c] = struct{}{}
	t.mu.Unlock()
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(c)
	for {
		m, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		if m.To != t.cfg.ID {
			continue // misaddressed frame
		}
		t.cfg.Handler(m)
	}
}

func (t *Transport) udpLoop() {
	defer t.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := t.udp.ReadFrom(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				t.lg.Printf("udp read: %v", err)
				return
			}
		}
		m, err := wire.Decode(buf[:n])
		if err != nil || m.To != t.cfg.ID {
			continue
		}
		t.cfg.Handler(m)
	}
}

// Close shuts the transport down and waits for its goroutines. It is
// idempotent.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() { close(t.done) })
	t.tcp.Close()
	t.udp.Close()
	t.mu.Lock()
	conns := make([]*outConn, 0, len(t.conns))
	for _, oc := range t.conns {
		conns = append(conns, oc)
	}
	acc := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		acc = append(acc, c)
	}
	t.mu.Unlock()
	// Close outside t.mu to respect the oc.mu → t.mu lock order used by
	// oc.send.
	for _, oc := range conns {
		oc.close()
	}
	for _, c := range acc {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
