package wireclient

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeMember is a binary-protocol stand-in for one group member with a
// scriptable leader view, so redirect scenarios are deterministic
// instead of depending on real election timing. A follower answers
// StatusNotLeader with its hint; a leader serves every request.
type fakeMember struct {
	*stubServer
	leader atomic.Bool
	hint   atomic.Uint64 // node ID carried by StatusNotLeader (0 = unknown)
	seen   atomic.Int64  // requests received
	served atomic.Int64  // requests answered as leader
}

func newFakeMember(t *testing.T, leader bool, hint uint64) *fakeMember {
	t.Helper()
	m := &fakeMember{}
	m.leader.Store(leader)
	m.hint.Store(hint)
	m.stubServer = startStub(t, func(Request) Response {
		m.seen.Add(1)
		if !m.leader.Load() {
			return Response{Status: StatusNotLeader, Leader: m.hint.Load()}
		}
		m.served.Add(1)
		return Response{}
	})
	return m
}

func (m *fakeMember) addr() string { return m.ln.Addr().String() }

// newTestGroup builds a GroupClient over addrs (node ID i+1 = addrs[i])
// that is closed before the members' cleanup waits on their connections.
func newTestGroup(t *testing.T, addrs ...string) *GroupClient {
	t.Helper()
	gc := NewGroupClient(addrs, PoolConfig{Size: 1})
	t.Cleanup(gc.Close)
	return gc
}

func put(t *testing.T, gc *GroupClient) {
	t.Helper()
	resp, err := gc.Call(&Request{Op: OpPut, Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("put: status %s", resp.Status)
	}
}

// Two members with mutually stale hints must not trap the walk in a
// redirect loop: the client lands on the real leader, which neither
// stale hint pointed at.
func TestGroupClientStaleHintsDoNotLoop(t *testing.T) {
	// Node 1 thinks node 2 leads; node 2 thinks node 1 leads; node 3 is
	// the actual leader no hint mentions.
	m1 := newFakeMember(t, false, 2)
	m2 := newFakeMember(t, false, 1)
	m3 := newFakeMember(t, true, 3)
	put(t, newTestGroup(t, m1.addr(), m2.addr(), m3.addr()))
	if m3.served.Load() != 1 {
		t.Fatalf("leader served %d writes, want 1", m3.served.Load())
	}
}

// A hint that leads nowhere (leader ID 0: "no leader known") must fall
// through to walking the members rather than giving up.
func TestGroupClientDeadEndHint(t *testing.T) {
	m1 := newFakeMember(t, false, 0)
	m2 := newFakeMember(t, false, 0)
	m3 := newFakeMember(t, true, 3)
	put(t, newTestGroup(t, m1.addr(), m2.addr(), m3.addr()))
	if m3.served.Load() != 1 {
		t.Fatalf("leader served %d writes, want 1", m3.served.Load())
	}
}

// Leadership moves between calls; the client must follow the fresh hint
// to the new leader and then cache it.
func TestGroupClientFollowsHintAcrossLeaderChange(t *testing.T) {
	m1 := newFakeMember(t, true, 1)
	m2 := newFakeMember(t, false, 1)
	m3 := newFakeMember(t, false, 1)
	gc := newTestGroup(t, m1.addr(), m2.addr(), m3.addr())
	put(t, gc)
	if m1.served.Load() != 1 {
		t.Fatalf("initial leader served %d writes, want 1", m1.served.Load())
	}

	// Leader moves 1 → 3; every member knows and hints correctly.
	m1.leader.Store(false)
	for _, m := range []*fakeMember{m1, m2, m3} {
		m.hint.Store(3)
	}
	m3.leader.Store(true)
	put(t, gc)
	if m3.served.Load() != 1 {
		t.Fatalf("new leader served %d writes, want 1", m3.served.Load())
	}

	// The client cached the new leader: the next write goes straight there.
	before := m1.seen.Load() + m2.seen.Load()
	put(t, gc)
	if m3.served.Load() != 2 || m1.seen.Load()+m2.seen.Load() != before {
		t.Fatal("client did not cache the new leader")
	}
}

// startDropper is a member that dies mid-call: it reads one request frame
// per connection, counts it, and hangs up without answering.
func startDropper(t *testing.T) (addr string, seen *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seen = new(atomic.Int64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(nc)
			if n, err := binary.ReadUvarint(br); err == nil {
				if _, err := io.ReadFull(br, make([]byte, n)); err == nil {
					seen.Add(1)
				}
			}
			nc.Close()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String(), seen
}

// A write whose connection dies after it was sent may have committed, so
// the client reports the outcome as unknown and sends it nowhere else. A
// read has no such hazard and walks on to the leader.
func TestGroupClientWriteNotResentAfterMidCallFailure(t *testing.T) {
	for _, op := range []Op{OpPut, OpDelete} {
		dropper, seen := startDropper(t)
		leader := newFakeMember(t, true, 2)
		_, err := newTestGroup(t, dropper, leader.addr()).Call(&Request{Op: op, Key: "k", Value: []byte("v")})
		if err == nil || !strings.Contains(err.Error(), "write outcome unknown") {
			t.Fatalf("%s: err = %v, want write outcome unknown", op, err)
		}
		if seen.Load() != 1 || leader.seen.Load() != 0 {
			t.Fatalf("%s sent %d times to the dead member and %d to the leader, want 1 and 0",
				op, seen.Load(), leader.seen.Load())
		}
	}

	dropper, _ := startDropper(t)
	leader := newFakeMember(t, true, 2)
	resp, err := newTestGroup(t, dropper, leader.addr()).Call(&Request{Op: OpGet, Key: "k"})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("get after mid-call failure: %v %s", err, resp.Status)
	}
}
