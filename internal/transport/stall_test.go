package transport

import (
	"bufio"
	"io"
	"log"
	"net"
	"sync"
	"testing"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/wire"
)

// stalledPeer is a raw TCP listener that accepts connections and does not
// read from them until release is called; from then on it decodes every
// frame it receives onto frames. It models a peer whose raft loop is
// wedged: its socket buffers fill and the sender's writes block. stop
// closes the listener and every accepted connection; it also runs at
// cleanup.
func stalledPeer(tb testing.TB) (addr string, release, stop func(), frames <-chan raft.Message) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	gate := make(chan struct{})
	done := make(chan struct{})
	out := make(chan raft.Message, 1024)
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				select {
				case <-gate:
				case <-done:
					return
				}
				r := bufio.NewReader(c)
				for {
					m, err := wire.ReadFrame(r)
					if err != nil {
						return
					}
					select {
					case out <- m:
					case <-done:
						return
					}
				}
			}()
		}
	}()
	var releaseOnce, stopOnce sync.Once
	stop = func() {
		stopOnce.Do(func() {
			close(done)
			ln.Close()
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			mu.Unlock()
		})
	}
	tb.Cleanup(stop)
	return ln.Addr().String(), func() { releaseOnce.Do(func() { close(gate) }) }, stop, out
}

// startTo starts node 1 with node 2 registered at peerTCP.
func startTo(tb testing.TB, peerTCP string) *Transport {
	tb.Helper()
	tr, err := Start(Config{
		ID:      1,
		Listen:  PeerAddr{TCP: "127.0.0.1:0", UDP: "127.0.0.1:0"},
		Peers:   map[raft.ID]PeerAddr{2: {TCP: peerTCP, UDP: "127.0.0.1:1"}},
		Handler: func(raft.Message) {},
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	return tr
}

// stallPayload is large enough that a few hundred frames fill loopback
// socket buffers, so the writer blocks long before the sends stop.
var stallPayload = make([]byte, 16<<10)

func stallMsg(i int) raft.Message {
	return raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 1, Index: uint64(i),
		Entries: []raft.Entry{{Term: 1, Index: uint64(i + 1), Data: stallPayload}}}
}

// TestSendNeverBlocksOnStalledPeer pins the property that keeps two raft
// loops from deadlocking on each other's full socket buffers: Send only
// enqueues, whatever the peer does. A peer that accepts and never reads
// must not block Send; the bounded queue drops the oldest messages and
// counts them; once the peer reads again, delivery resumes.
func TestSendNeverBlocksOnStalledPeer(t *testing.T) {
	addr, release, stop, frames := stalledPeer(t)
	tr := startTo(t, addr)
	const n = 4 * outQueueMax
	sent := make(chan struct{})
	go func() {
		for i := 1; i <= n; i++ {
			tr.Send(stallMsg(i))
		}
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		stop() // unblock a sender stuck in a socket write so cleanup can finish
		t.Fatalf("%d Sends to a stalled peer did not return within 10s", n)
	}
	if tr.Drops() == 0 {
		t.Fatalf("no drops after %d Sends to a stalled peer (queue cap %d)", n, outQueueMax)
	}

	release()
	tr.Send(stallMsg(n + 1))
	deadline := time.After(10 * time.Second)
	var last uint64
	for last != n+1 {
		select {
		case m := <-frames:
			if m.Index <= last {
				t.Fatalf("frame %d arrived after %d", m.Index, last)
			}
			last = m.Index
		case <-deadline:
			t.Fatalf("delivery did not resume: last frame %d, want %d", last, n+1)
		}
	}
}

// BenchmarkSendToStalledPeer measures one Send once the peer's queue is
// full, so every Send evicts the oldest queued message. The peer refuses
// connections: its writer sits in redial backoff and never drains the
// queue, which a never-reading peer would do whenever its socket buffers
// grow.
func BenchmarkSendToStalledPeer(b *testing.B) {
	tr := startTo(b, reserveAddr(b, "tcp"))
	m := stallMsg(1)
	for tr.Drops() == 0 {
		tr.Send(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(m)
	}
}
