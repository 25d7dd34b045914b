package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

// startBinCluster boots n servers with both admin HTTP and binary
// listeners and returns the servers plus their binary addresses indexed
// by node ID-1.
func startBinCluster(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	addrs := make(map[raft.ID]transport.PeerAddr, n)
	for i := 0; i < n; i++ {
		addrs[raft.ID(i+1)] = transport.PeerAddr{TCP: reservePort(t, "tcp"), UDP: reservePort(t, "udp")}
	}
	srvs := make([]*Server, n)
	bins := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := Start(Config{
			ID:         raft.ID(i + 1),
			Listen:     addrs[raft.ID(i+1)],
			HTTPListen: "127.0.0.1:0",
			BinListen:  "127.0.0.1:0",
			Peers:      addrs,
			Tuner:      fastTuner(),
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = s
		bins[i] = s.BinAddr()
		t.Cleanup(s.Stop)
	}
	return srvs, bins
}

func TestBinPutGetAgainstNodes(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{Size: 1})
	defer gc.Close()

	resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "color", Value: []byte("blue")})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if resp.Status != wireclient.StatusOK {
		t.Fatalf("put status %s: %s", resp.Status, resp.Err)
	}
	resp, err = gc.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "color"})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.Status != wireclient.StatusOK || !bytes.Equal(resp.Value, []byte("blue")) {
		t.Fatalf("get: status %s value %q", resp.Status, resp.Value)
	}
	resp, err = gc.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "nope"})
	if err != nil {
		t.Fatalf("get missing: %v", err)
	}
	if resp.Status != wireclient.StatusNotFound {
		t.Fatalf("missing key status %s", resp.Status)
	}
}

// The node's whole data API over the binary protocol — put, get, delete
// and not-found — plus the admin /status JSON over HTTP.
func TestBinAPI(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	lead := waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{Size: 1})
	defer gc.Close()
	call := func(r wireclient.Request, want wireclient.Status) wireclient.Response {
		t.Helper()
		resp, err := gc.Call(&r)
		if err != nil {
			t.Fatalf("%s %q: %v", r.Op, r.Key, err)
		}
		if resp.Status != want {
			t.Fatalf("%s %q: status %s (%s), want %s", r.Op, r.Key, resp.Status, resp.Err, want)
		}
		return resp
	}
	call(wireclient.Request{Op: wireclient.OpPut, Key: "color", Value: []byte("blue")}, wireclient.StatusOK)
	if v := call(wireclient.Request{Op: wireclient.OpGet, Key: "color"}, wireclient.StatusOK).Value; string(v) != "blue" {
		t.Fatalf("get color = %q", v)
	}
	call(wireclient.Request{Op: wireclient.OpDelete, Key: "color"}, wireclient.StatusOK)
	call(wireclient.Request{Op: wireclient.OpGet, Key: "color"}, wireclient.StatusNotFound)
	call(wireclient.Request{Op: wireclient.OpGet, Key: "absent"}, wireclient.StatusNotFound)

	resp, err := http.Get("http://" + lead.HTTPAddr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if st.State != "leader" || st.ID != lead.cfg.ID || st.Leader != st.ID {
		t.Fatalf("status = %+v", st)
	}
}

// The node rejects a request no handler can serve before it reaches raft:
// an empty key on put/get/delete, or FlagLocal and FlagReadIndex set
// together.
func TestBinRejectsMalformedRequests(t *testing.T) {
	srvs, bins := startBinCluster(t, 1)
	waitLeader(t, srvs, 10*time.Second)
	c, err := wireclient.Dial(bins[0], 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name string
		req  wireclient.Request
		want string
	}{
		{"put empty key", wireclient.Request{Op: wireclient.OpPut, Value: []byte("v")}, "missing key"},
		{"get empty key", wireclient.Request{Op: wireclient.OpGet, Flags: wireclient.FlagLocal}, "missing key"},
		{"delete empty key", wireclient.Request{Op: wireclient.OpDelete}, "missing key"},
		{"local and read-index", wireclient.Request{Op: wireclient.OpGet, Key: "k",
			Flags: wireclient.FlagLocal | wireclient.FlagReadIndex}, "exclusive"},
	} {
		resp, err := c.Call(&tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Status != wireclient.StatusErr || !strings.Contains(resp.Err, tc.want) {
			t.Fatalf("%s: status %s %q, want %s %q", tc.name, resp.Status, resp.Err, wireclient.StatusErr, tc.want)
		}
	}
	if _, ok := srvs[0].Get(""); ok {
		t.Fatal("empty key was stored")
	}
}

// A put sent straight at a follower must answer StatusNotLeader carrying
// the real leader's id.
func TestBinFollowerReturnsLeaderHint(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	leader := waitLeader(t, srvs, 10*time.Second)

	var follower int = -1
	for i, s := range srvs {
		if s != leader {
			follower = i
			break
		}
	}
	c, err := wireclient.Dial(bins[follower], 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "k", Value: []byte("v")})
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		if resp.Status == wireclient.StatusNotLeader {
			if resp.Leader != uint64(leader.Status().ID) {
				t.Fatalf("hint %d, leader is %d", resp.Leader, leader.Status().ID)
			}
			return
		}
		// The follower may not have learned the leader yet (hint 0 comes
		// back as an error upstream); retry briefly.
		if time.Now().After(deadline) {
			t.Fatalf("never got a leader hint; last status %s", resp.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestBinMultiGet(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{Size: 1})
	defer gc.Close()
	for i := 0; i < 4; i++ {
		resp, err := gc.Call(&wireclient.Request{
			Op: wireclient.OpPut, Key: fmt.Sprintf("mg-%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
		})
		if err != nil || resp.Status != wireclient.StatusOK {
			t.Fatalf("put %d: %v %s", i, err, resp.Status)
		}
	}
	resp, err := gc.Call(&wireclient.Request{
		Op:   wireclient.OpMultiGet,
		Keys: []string{"mg-2", "missing", "mg-0", "mg-3"},
	})
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	if resp.Status != wireclient.StatusOK {
		t.Fatalf("multiget status %s: %s", resp.Status, resp.Err)
	}
	wantFound := []bool{true, false, true, true}
	wantVals := []string{"v2", "", "v0", "v3"}
	for i := range wantFound {
		if resp.Found[i] != wantFound[i] || string(resp.Multi[i]) != wantVals[i] {
			t.Fatalf("slot %d: found=%v val=%q", i, resp.Found[i], resp.Multi[i])
		}
	}
}

// The group client must keep writes flowing across a leader crash by
// following hints / walking members to the new leader.
func TestBinClientFollowsLeaderChange(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	leader := waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{
		Size: 1, BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	})
	defer gc.Close()
	if resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "pre", Value: []byte("1")}); err != nil || resp.Status != wireclient.StatusOK {
		t.Fatalf("pre-crash put: %v %s", err, resp.Status)
	}

	leader.Stop()
	rest := make([]*Server, 0, 2)
	for _, s := range srvs {
		if s != leader {
			rest = append(rest, s)
		}
	}
	waitLeader(t, rest, 10*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "post", Value: []byte("2")})
		if err == nil && resp.Status == wireclient.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("put never reached the new leader: %v / %+v", err, resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "post"})
	if err != nil || resp.Status != wireclient.StatusOK || string(resp.Value) != "2" {
		t.Fatalf("read-after-failover: %v %+v", err, resp)
	}
}

// Graceful drain: requests the server has accepted are answered before the
// connection is torn down, even when close() races their handlers.
func TestBinServerDrainAnswersAccepted(t *testing.T) {
	release := make(chan struct{})
	bs, err := startBinServer("127.0.0.1:0", func(req wireclient.Request) wireclient.Response {
		<-release
		return wireclient.Response{Status: wireclient.StatusOK, Value: []byte("done")}
	}, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}

	c, err := wireclient.Dial(bs.addr(), 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const N = 10
	results := make(chan error, N)
	for i := 0; i < N; i++ {
		c.Do(&wireclient.Request{Op: wireclient.OpGet, Key: fmt.Sprintf("k%d", i)}, func(r wireclient.Response, err error) {
			if err == nil && r.Status != wireclient.StatusOK {
				err = fmt.Errorf("status %s", r.Status)
			}
			results <- err
		})
	}
	// Wait until the server has accepted all N into handlers.
	deadline := time.Now().Add(2 * time.Second)
	for c.Pending() < N && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the reader goroutine pick them up

	var closed sync.WaitGroup
	closed.Add(1)
	go func() { defer closed.Done(); bs.close() }()
	time.Sleep(20 * time.Millisecond) // close() is now draining
	close(release)                    // handlers complete during drain

	for i := 0; i < N; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("request %d failed during drain: %v", i, err)
			}
		case <-time.After(binDrainTimeout + 2*time.Second):
			t.Fatal("drain never answered accepted request")
		}
	}
	closed.Wait()
}

// BinFront routes keys across groups and reassembles cross-group multigets
// positionally.
func TestBinFrontShardedRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two raft clusters")
	}
	const G = 2
	groupBins := make([][]string, G)
	for g := 0; g < G; g++ {
		srvs, bins := startBinCluster(t, 3)
		waitLeader(t, srvs, 10*time.Second)
		groupBins[g] = bins
	}
	f, err := StartBinFront("127.0.0.1:0", groupBins, wireclient.PoolConfig{Size: 1}, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cl := wireclient.NewClient([]string{f.Addr()}, wireclient.PoolConfig{Size: 1})
	defer cl.Close()

	// Find keys landing in each group so the multiget truly spans groups.
	byGroup := map[int]string{}
	keys := []string{}
	for i := 0; len(byGroup) < G || len(keys) < 6; i++ {
		k := fmt.Sprintf("shard-key-%d", i)
		g := int(f.Router().Route(k))
		if _, ok := byGroup[g]; !ok {
			byGroup[g] = k
		}
		keys = append(keys, k)
		if i > 1000 {
			t.Fatal("router never spread keys across groups")
		}
	}
	for i, k := range keys {
		if err := cl.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	for i, k := range keys {
		v, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("get %s: %q want %q", k, v, want)
		}
	}
	mgKeys := append([]string{}, keys...)
	mgKeys = append(mgKeys, "never-written")
	vals, found, err := cl.MultiGet(mgKeys)
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	for i := range keys {
		if !found[i] || string(vals[i]) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("multiget slot %d: found=%v val=%q", i, found[i], vals[i])
		}
	}
	if found[len(keys)] {
		t.Fatal("missing key reported found")
	}
	for _, k := range byGroup {
		if resp, err := cl.Call(&wireclient.Request{Op: wireclient.OpDelete, Key: k}); err != nil || resp.Status != wireclient.StatusOK {
			t.Fatalf("delete %s: %v %s", k, err, resp.Status)
		}
		if _, err := cl.Get(k); !errors.Is(err, wireclient.ErrNotFound) {
			t.Fatalf("get %s after delete: %v", k, err)
		}
	}
}

// An idle request never waits a coalesce window: with both connection
// windows on the path set to 1 s (client → Front, Front → node), serial
// Puts through a BinFront still finish in milliseconds. Group commit
// stays off here: with it on, every Put still waits its window.
func TestIdlePutSkipsWindows(t *testing.T) {
	const window = time.Second
	srvs, bins := startBinCluster(t, 3)
	waitLeader(t, srvs, 10*time.Second)
	slow := wireclient.ConnConfig{CoalesceWindow: window}
	f, err := StartBinFront("127.0.0.1:0", [][]string{bins}, wireclient.PoolConfig{Size: 1, Conn: slow}, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := wireclient.Dial(f.Addr(), time.Second, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first Put may find the Front still learning the leader.
	if resp, err := c.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "warm", Value: []byte("v")}); err != nil || resp.Status != wireclient.StatusOK {
		t.Fatalf("warm-up put: %v %s", err, resp.Status)
	}
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		resp, err := c.Call(&wireclient.Request{Op: wireclient.OpPut, Key: fmt.Sprintf("idle-%d", i), Value: []byte("v")})
		if err != nil || resp.Status != wireclient.StatusOK {
			t.Fatalf("put %d: %v %s (%s)", i, err, resp.Status, resp.Err)
		}
		if d := time.Since(t0); d > 100*time.Millisecond {
			t.Fatalf("idle put %d took %v: it waited a window", i, d)
		}
	}
}

func TestBinFrontValidation(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	if _, err := StartBinFront("127.0.0.1:0", nil, wireclient.PoolConfig{}, quiet); err == nil {
		t.Fatal("expected error for empty group set")
	}
	if _, err := StartBinFront("127.0.0.1:0", [][]string{{}}, wireclient.PoolConfig{}, quiet); err == nil {
		t.Fatal("expected error for group with no members")
	}
}
