package transport

import (
	"net"
	"testing"
	"time"

	"dynatune/internal/raft"
)

func reserveAddr(t testing.TB, network string) string {
	t.Helper()
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := pc.LocalAddr().String()
		pc.Close()
		return addr
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// Messages sent while a peer is down must queue and flush, in order, once
// the peer restarts at the SAME address — the background-redial path, as
// opposed to TestReconnectAfterPeerRestart's explicit re-SetPeer on fresh
// ports.
func TestRedialFlushesQueueAfterPeerRestart(t *testing.T) {
	peerTCP := reserveAddr(t, "tcp")
	peerUDP := reserveAddr(t, "udp")

	in1 := make(chan raft.Message, 64)
	t1, err := Start(Config{
		ID:      1,
		Listen:  PeerAddr{TCP: "127.0.0.1:0", UDP: "127.0.0.1:0"},
		Handler: func(m raft.Message) { in1 <- m },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	start2 := func() (*Transport, chan raft.Message) {
		in := make(chan raft.Message, 64)
		tr, err := Start(Config{
			ID:      2,
			Listen:  PeerAddr{TCP: peerTCP, UDP: peerUDP},
			Handler: func(m raft.Message) { in <- m },
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetPeer(1, t1.Addrs())
		return tr, in
	}

	t2, in2 := start2()
	t1.SetPeer(2, PeerAddr{TCP: peerTCP, UDP: peerUDP})
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 1})
	recvOne(t, in2)

	// Peer goes down. The first post-outage write may still land in the
	// dying socket's buffer and be lost (at-most-once transport — raft
	// retransmits); everything after the break is detected must queue and
	// flush in order once the peer is back.
	t2.Close()
	time.Sleep(50 * time.Millisecond) // let the listener actually close
	for term := uint64(2); term <= 5; term++ {
		t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: term})
		time.Sleep(10 * time.Millisecond) // give the writer time to see the break
	}

	// Peer restarts at the same address; the queued tail must drain in
	// order, ending with term 5.
	t2b, in2b := start2()
	defer t2b.Close()

	deadline := time.After(10 * time.Second)
	last := uint64(0)
	for last != 5 {
		select {
		case m := <-in2b:
			if m.Term <= last {
				t.Fatalf("redial flush out of order: got term %d after %d", m.Term, last)
			}
			last = m.Term
		case <-deadline:
			t.Fatalf("queue never flushed after restart (last term seen: %d)", last)
		}
	}

	// And the connection is live again for fresh traffic.
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 6})
	if m := recvOne(t, in2b); m.Term != 6 {
		t.Fatalf("post-restart send: term %d", m.Term)
	}
}

// Close during an outage must not leak the redial goroutine or panic on
// the WaitGroup: queued messages are dropped and Close returns promptly.
func TestCloseDuringRedialOutage(t *testing.T) {
	peerTCP := reserveAddr(t, "tcp")
	peerUDP := reserveAddr(t, "udp")
	t1, err := Start(Config{
		ID:      1,
		Listen:  PeerAddr{TCP: "127.0.0.1:0", UDP: "127.0.0.1:0"},
		Handler: func(raft.Message) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t1.SetPeer(2, PeerAddr{TCP: peerTCP, UDP: peerUDP}) // nothing listening
	for i := 0; i < 10; i++ {
		t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: uint64(i)})
	}
	done := make(chan struct{})
	go func() { t1.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while a redial was in flight")
	}
}
