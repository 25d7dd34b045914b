package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/wireclient"
)

func TestGetLinearizableOnRealNetwork(t *testing.T) {
	srvs := startClusterStatic(t, 3, fastTuner)
	lead := waitLeader(t, srvs, 10*time.Second)
	if err := lead.Propose(kv.Command{Op: kv.OpPut, Key: "lin", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	// ReadIndex path.
	v, ok, err := lead.GetLinearizable("lin", false)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("ReadIndex get: %q %v %v", v, ok, err)
	}
	// Lease path (falls back internally if the lease lapsed).
	v, ok, err = lead.GetLinearizable("lin", true)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("lease get: %q %v %v", v, ok, err)
	}
	// Missing key: confirmed read, not found.
	_, ok, err = lead.GetLinearizable("absent", false)
	if err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
}

func TestGetLinearizableOnFollowerFails(t *testing.T) {
	srvs := startClusterStatic(t, 3, fastTuner)
	lead := waitLeader(t, srvs, 10*time.Second)
	for _, s := range srvs {
		if s == lead {
			continue
		}
		if _, _, err := s.GetLinearizable("x", false); !errors.Is(err, raft.ErrNotLeader) {
			t.Fatalf("follower linearizable get: err=%v, want ErrNotLeader", err)
		}
	}
}

// All three read modes answer on the leader; a ReadIndex read on a
// follower is misdirected with the leader hint, since only the leader
// can confirm its authority.
func TestBinConsistencyFlags(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	lead := waitLeader(t, srvs, 10*time.Second)
	if err := lead.Propose(kv.Command{Op: kv.OpPut, Key: "c", Value: []byte("42")}); err != nil {
		t.Fatal(err)
	}
	leadID := lead.Status().ID
	conns := make([]*wireclient.Conn, len(bins))
	for i, addr := range bins {
		c, err := wireclient.Dial(addr, 2*time.Second, wireclient.ConnConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	for _, flags := range []uint8{0, wireclient.FlagLocal, wireclient.FlagReadIndex} {
		resp, err := conns[leadID-1].Call(&wireclient.Request{Op: wireclient.OpGet, Key: "c", Flags: flags})
		if err != nil || resp.Status != wireclient.StatusOK || string(resp.Value) != "42" {
			t.Fatalf("get with flags %#x: %v %s %q", flags, err, resp.Status, resp.Value)
		}
	}

	// A follower may not have learned the leader yet (hint 0); retry
	// briefly until one names it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i, c := range conns {
			if raft.ID(i+1) == leadID {
				continue
			}
			resp, err := c.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "c", Flags: wireclient.FlagReadIndex})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != wireclient.StatusNotLeader {
				t.Fatalf("follower ReadIndex get: status %s, want %s", resp.Status, wireclient.StatusNotLeader)
			}
			if resp.Leader == uint64(leadID) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no follower's misdirected ReadIndex get named the leader")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestLinearizableReadAfterWriteRealTime(t *testing.T) {
	// Write-then-linearizable-read must always observe the write, repeated
	// across several rounds on a real (loopback) network.
	srvs := startClusterStatic(t, 3, fastTuner)
	lead := waitLeader(t, srvs, 10*time.Second)
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("gen-%d", i)
		if err := lead.Propose(kv.Command{Op: kv.OpPut, Client: 3, Seq: uint64(i + 1), Key: "rw", Value: []byte(want)}); err != nil {
			t.Fatal(err)
		}
		v, ok, err := lead.GetLinearizable("rw", i%2 == 0)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("round %d: %q %v %v, want %q", i, v, ok, err, want)
		}
	}
}

// FlagReadIndex must confirm leadership with a quorum round, never ride
// the lease alone: once both followers are gone, a ReadIndex get on the
// old leader must not succeed even while its lease would still hold.
func TestBinReadIndexNeedsQuorum(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	lead := waitLeader(t, srvs, 10*time.Second)
	if err := lead.Propose(kv.Command{Op: kv.OpPut, Key: "q", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	c, err := wireclient.Dial(bins[lead.Status().ID-1], 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range srvs {
		if s != lead {
			s.Stop()
		}
	}
	resp, err := c.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "q", Flags: wireclient.FlagReadIndex})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == wireclient.StatusOK {
		t.Fatal("ReadIndex get served without a quorum")
	}
}
