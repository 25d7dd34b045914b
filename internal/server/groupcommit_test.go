package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/transport"
)

// reserveAddr is reservePort for benchmarks too.
func reserveAddr(tb testing.TB, network string) string {
	tb.Helper()
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr
}

// startBatchCluster boots n servers with the given batch window.
func startBatchCluster(tb testing.TB, n int, window time.Duration) []*Server {
	tb.Helper()
	addrs := make(map[raft.ID]transport.PeerAddr, n)
	for i := 0; i < n; i++ {
		addrs[raft.ID(i+1)] = transport.PeerAddr{
			TCP: reserveAddr(tb, "tcp"),
			UDP: reserveAddr(tb, "udp"),
		}
	}
	srvs := make([]*Server, n)
	for i := 0; i < n; i++ {
		s, err := Start(Config{
			ID:          raft.ID(i + 1),
			Listen:      addrs[raft.ID(i+1)],
			HTTPListen:  "127.0.0.1:0",
			Peers:       addrs,
			Tuner:       fastTuner(),
			BatchWindow: window,
		})
		if err != nil {
			tb.Fatal(err)
		}
		srvs[i] = s
		tb.Cleanup(s.Stop)
	}
	return srvs
}

// TestGroupCommitCoalesces drives many concurrent writers at a leader
// with the default batch window (BatchWindow 0, as dynatuned runs it)
// and checks the group-commit invariant: raft entries proposed stays
// well below client commands accepted, with nothing lost or reordered
// past the idempotence table.
func TestGroupCommitCoalesces(t *testing.T) {
	srvs := startBatchCluster(t, 3, 0)
	lead := waitLeader(t, srvs, 10*time.Second)

	const writers, per = 16, 25
	errs := make(chan error, writers*per)
	var wg sync.WaitGroup
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				errs <- lead.Propose(kv.Command{
					Op: kv.OpPut, Client: uint64(c + 1), Seq: uint64(i + 1),
					Key:   fmt.Sprintf("w%d-k%d", c, i),
					Value: []byte(fmt.Sprintf("v%d", i)),
				})
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := lead.BatchStats()
	if st.ClientOps != writers*per {
		t.Fatalf("client ops = %d, want %d", st.ClientOps, writers*per)
	}
	if st.Entries >= st.ClientOps {
		t.Fatalf("no coalescing: %d entries for %d client ops", st.Entries, st.ClientOps)
	}
	t.Logf("group commit: %d ops in %d entries (amp %.3f, mean depth %.1f, max %d)",
		st.ClientOps, st.Entries, st.ProposeAmp(), st.MeanDepth(), st.MaxDepth)

	for c := 0; c < writers; c++ {
		key := fmt.Sprintf("w%d-k%d", c, per-1)
		if v, ok := lead.Get(key); !ok || string(v) != fmt.Sprintf("v%d", per-1) {
			t.Fatalf("%s = %q, %v", key, v, ok)
		}
		if got := lead.Store().LastSeq(uint64(c + 1)); got != per {
			t.Fatalf("client %d lastSeq = %d, want %d", c+1, got, per)
		}
	}
}

// TestBatchAbortOnLeaderChange blackholes a batching leader's outbound
// replication so its in-flight batch can never commit, and requires that
// the leadership change fails every waiter promptly — no request rides
// out the full ProposeTimeout — and that client retries through the new
// leader converge without double-applying.
func TestBatchAbortOnLeaderChange(t *testing.T) {
	srvs := startBatchCluster(t, 3, time.Millisecond)
	lead := waitLeader(t, srvs, 10*time.Second)

	// Blackhole leader → followers: its appends vanish, while follower →
	// leader traffic (the higher-term campaign) still lands.
	dead := transport.PeerAddr{TCP: "127.0.0.1:1", UDP: "127.0.0.1:1"}
	for _, s := range srvs {
		if s != lead {
			lead.SetPeer(s.cfg.ID, dead)
		}
	}

	const n = 8
	type putRes struct {
		i   int
		err error
	}
	start := time.Now()
	results := make(chan putRes, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			err := lead.Propose(kv.Command{
				Op: kv.OpPut, Client: 99, Seq: uint64(i + 1),
				Key: fmt.Sprintf("abort-k%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
			})
			results <- putRes{i, err}
		}(i)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err == nil {
			t.Fatalf("put %d committed through a blackholed leader", r.i)
		}
		if !errors.Is(r.err, raft.ErrNotLeader) {
			t.Fatalf("put %d failed with %v, want ErrNotLeader so clients re-route", r.i, r.err)
		}
	}
	// Default ProposeTimeout is 5s; the abort must beat it by a wide
	// margin (step-down needs roughly one 150ms election timeout).
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("batch abort took %v — waiters rode out the timeout", el)
	}

	// Heal, then retry the SAME (client, seq) commands through the new
	// leader: they must all land exactly once.
	for _, s := range srvs {
		if s != lead {
			lead.SetPeer(s.cfg.ID, s.Addrs())
		}
	}
	var newLead *Server
	deadline := time.Now().Add(10 * time.Second)
	for newLead == nil {
		if time.Now().After(deadline) {
			t.Fatal("no new leader after healing")
		}
		for _, s := range srvs {
			if s != lead && s.Status().State == "leader" {
				newLead = s
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		err := newLead.Propose(kv.Command{
			Op: kv.OpPut, Client: 99, Seq: uint64(i + 1),
			Key: fmt.Sprintf("abort-k%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
		})
		if err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("abort-k%d", i)
		if v, ok := newLead.Get(key); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q, %v after retry", key, v, ok)
		}
	}
	if got := newLead.Store().LastSeq(99); got != n {
		t.Fatalf("lastSeq = %d, want %d", got, n)
	}
}

// BenchmarkProposeAllocs measures per-propose allocations on a
// single-node cluster (commit is local, so this isolates the batcher,
// waiter and shared-deadline-heap path that replaced one time.After per
// call). One Propose at a time waits out the batch window, so ns/op is
// the idle window, not CPU cost.
func BenchmarkProposeAllocs(b *testing.B) {
	addr := transport.PeerAddr{TCP: reserveAddr(b, "tcp"), UDP: reserveAddr(b, "udp")}
	s, err := Start(Config{
		ID:     1,
		Listen: addr,
		Peers:  map[raft.ID]transport.PeerAddr{1: addr},
		Tuner:  fastTuner(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for s.Status().State != "leader" {
		if time.Now().After(deadline) {
			b.Fatal("single node never became leader")
		}
		time.Sleep(10 * time.Millisecond)
	}
	val := []byte("value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Propose(kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(i + 1), Key: "bench", Value: val}); err != nil {
			b.Fatal(err)
		}
	}
}
