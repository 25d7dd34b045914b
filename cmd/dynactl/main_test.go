package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

// deadAddr is a loopback address nothing listens on.
const deadAddr = "127.0.0.1:1"

// startNode boots a real single-node cluster serving both the binary data
// API and the admin HTTP /status, and waits until it leads.
func startNode(t *testing.T) *server.Server {
	t.Helper()
	reserve := func(network string) string {
		if network == "tcp" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			return ln.Addr().String()
		}
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		return pc.LocalAddr().String()
	}
	pa := transport.PeerAddr{TCP: reserve("tcp"), UDP: reserve("udp")}
	s, err := server.Start(server.Config{
		ID:         1,
		Peers:      map[raft.ID]transport.PeerAddr{1: pa},
		Listen:     pa,
		HTTPListen: "127.0.0.1:0",
		BinListen:  "127.0.0.1:0",
		Tuner:      raft.NewStaticTuner(150*time.Millisecond, 15*time.Millisecond),
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	deadline := time.Now().Add(10 * time.Second)
	for s.Status().State != "leader" {
		if time.Now().After(deadline) {
			t.Fatal("single node never became leader")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return s
}

// dynactl runs one invocation and returns its stdout and exit code.
func dynactl(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	if code != 0 {
		t.Logf("dynactl %s: exit %d: %s", strings.Join(args, " "), code, errb.String())
	}
	return out.String(), code
}

func TestClientPutGetDelete(t *testing.T) {
	s := startNode(t)
	ep := "-endpoints=" + s.BinAddr()
	if out, code := dynactl(t, ep, "put", "color", "blue"); code != 0 || out != "OK\n" {
		t.Fatalf("put: exit %d %q", code, out)
	}
	if v, ok := s.Get("color"); !ok || string(v) != "blue" {
		t.Fatalf("store has color=%q (%v)", v, ok)
	}
	for _, c := range []string{"local", "lease", "linearizable"} {
		if out, code := dynactl(t, ep, "-consistency", c, "get", "color"); code != 0 || out != "blue\n" {
			t.Fatalf("get -consistency %s: exit %d %q", c, code, out)
		}
	}
	if out, code := dynactl(t, ep, "del", "color"); code != 0 || out != "OK\n" {
		t.Fatalf("del: exit %d %q", code, out)
	}
	if _, ok := s.Get("color"); ok {
		t.Fatal("delete did not remove key")
	}
	if _, code := dynactl(t, ep, "get", "color"); code != 1 {
		t.Fatalf("get of deleted key: exit %d, want 1", code)
	}
}

// A dead member ahead of the leader in the endpoint list costs one failed
// dial, not the write.
func TestClientFallsThroughToLeader(t *testing.T) {
	s := startNode(t)
	if _, code := dynactl(t, "-endpoints="+deadAddr+","+s.BinAddr(), "put", "k", "v"); code != 0 {
		t.Fatalf("put: exit %d", code)
	}
	if v, ok := s.Get("k"); !ok || string(v) != "v" {
		t.Fatal("write did not reach the leader")
	}
}

func TestClientAllEndpointsDown(t *testing.T) {
	if _, code := dynactl(t, "-endpoints="+deadAddr, "-timeout=1s", "put", "k", "v"); code != 1 {
		t.Fatalf("put with no reachable endpoint: exit %d, want 1", code)
	}
	if _, code := dynactl(t, "-endpoints="+deadAddr, "-timeout=1s", "status"); code != 1 {
		t.Fatalf("status with no reachable endpoint: exit %d, want 1", code)
	}
}

func TestClientStatus(t *testing.T) {
	s := startNode(t)
	out, code := dynactl(t, "-endpoints="+s.HTTPAddr()+","+deadAddr, "-timeout=1s", "status")
	if code != 0 { // one reachable endpoint suffices
		t.Fatalf("status: exit %d", code)
	}
	if !strings.Contains(out, `"state":"leader"`) || !strings.Contains(out, deadAddr+" ") {
		t.Fatalf("status output:\n%s", out)
	}
}

func TestClientBench(t *testing.T) {
	s := startNode(t)
	out, code := dynactl(t, "-endpoints="+s.BinAddr(), "bench", "-n", "10")
	if code != 0 || !strings.HasPrefix(out, "10 puts in ") {
		t.Fatalf("bench: exit %d %q", code, out)
	}
	for i := 0; i < 10; i++ {
		if _, ok := s.Get(fmt.Sprintf("bench-%d", i)); !ok {
			t.Fatalf("bench did not write bench-%d", i)
		}
	}
}

func TestClientPing(t *testing.T) {
	s := startNode(t)
	if out, code := dynactl(t, "-endpoints="+s.BinAddr(), "ping"); code != 0 || !strings.HasPrefix(out, "OK ") {
		t.Fatalf("ping: exit %d %q", code, out)
	}
}

// Each -consistency value maps onto its own request flags; anything else
// is a usage error (exit 2), never a silent lease read.
func TestConsistencyFlags(t *testing.T) {
	for _, tc := range []struct {
		value string
		flags uint8
		ok    bool
	}{
		{"local", wireclient.FlagLocal, true},
		{"lease", 0, true},
		{"linearizable", wireclient.FlagReadIndex, true},
		{"wat", 0, false},
	} {
		flags, err := readFlags(tc.value)
		if (err == nil) != tc.ok || flags != tc.flags {
			t.Fatalf("readFlags(%q) = %#x, %v; want %#x, ok=%v", tc.value, flags, err, tc.flags, tc.ok)
		}
		if !tc.ok {
			if _, code := dynactl(t, "-endpoints="+deadAddr, "-consistency", tc.value, "get", "k"); code != 2 {
				t.Fatalf("-consistency %s: exit %d, want 2", tc.value, code)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"get"},
		{"put", "k"},
		{"del"},
		{"status", "extra"},
		{"bench", "-n", "x"},
		{"frobnicate"},
	} {
		if _, code := dynactl(t, append([]string{"-endpoints=" + deadAddr}, args...)...); code != 2 {
			t.Fatalf("dynactl %v: exit %d, want 2", args, code)
		}
	}
}
