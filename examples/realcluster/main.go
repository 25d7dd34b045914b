// Real cluster: boots three in-process dynatuned nodes on loopback with
// the genuine UDP/TCP transport and wall-clock timers, writes a few keys
// through a leader-following binary group client, drives a pipelined
// workload through the sharded binary Front, kills the leader, times the
// wall-clock failover, and reads the data back through the same client —
// the non-simulated counterpart of the quickstart.
//
//	go run ./examples/realcluster
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

func main() {
	log.SetFlags(0)

	// Reserve three TCP/UDP address pairs on loopback.
	addrs := map[raft.ID]transport.PeerAddr{}
	for id := raft.ID(1); id <= 3; id++ {
		addrs[id] = transport.PeerAddr{TCP: reserve("tcp"), UDP: reserve("udp")}
	}

	// Loopback RTT is tiny, so scale the fallback parameters down to keep
	// the demo snappy; the tuner will still shrink Et to its MinEt floor.
	mkTuner := func() raft.Tuner {
		return dynatune.MustNew(dynatune.Options{
			FallbackEt:  300 * time.Millisecond,
			FallbackH:   30 * time.Millisecond,
			MinListSize: 5,
			MinEt:       25 * time.Millisecond,
			MinH:        2 * time.Millisecond,
		})
	}

	servers := map[raft.ID]*server.Server{}
	for id := raft.ID(1); id <= 3; id++ {
		s, err := server.Start(server.Config{
			ID:        id,
			Peers:     addrs,
			Listen:    addrs[id],
			BinListen: "127.0.0.1:0",
			Tuner:     mkTuner(),
			// The demo kills a node, so suppress the transport's
			// connection-refused drop logs.
			Logger: log.New(io.Discard, "", 0),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Stop()
		servers[id] = s
		fmt.Printf("node %d up: raft %s, bin %s\n", id, s.Addrs().TCP, s.BinAddr())
	}

	lead := waitLeader(servers)
	fmt.Printf("\nleader elected: node %d\n", lead.Status().ID)

	// A group client holds every member's binary address (indexed by node
	// ID-1) and follows not-leader hints, so it finds the leader itself.
	binAddrs := make([]string, 0, 3)
	for id := raft.ID(1); id <= 3; id++ {
		binAddrs = append(binAddrs, servers[id].BinAddr())
	}
	gc := wireclient.NewGroupClient(binAddrs, wireclient.PoolConfig{Size: 1})
	defer gc.Close()
	for i := 0; i < 5; i++ {
		resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpPut,
			Key: fmt.Sprintf("city-%d", i), Value: []byte("value")})
		if err != nil || resp.Status != wireclient.StatusOK {
			log.Fatalf("put: %v %s", err, resp.Status)
		}
	}
	fmt.Println("replicated 5 keys through the real transport")

	// Stand a sharded binary Front over the group (one group here) and
	// pipeline a burst of puts and gets through ONE TCP connection: the
	// requests coalesce into batched writes and complete out of order,
	// demuxed by request id.
	bf, err := server.StartBinFront("127.0.0.1:0", [][]string{binAddrs},
		wireclient.PoolConfig{Size: 2}, log.New(io.Discard, "", 0))
	if err != nil {
		log.Fatal(err)
	}
	defer bf.Close()
	conn, err := wireclient.Dial(bf.Addr(), 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		log.Fatal(err)
	}
	const burst = 200
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		req := wireclient.Request{Op: wireclient.OpPut,
			Key: fmt.Sprintf("burst-%03d", i), Value: []byte("v")}
		if i%2 == 1 {
			req = wireclient.Request{Op: wireclient.OpGet, Key: fmt.Sprintf("burst-%03d", i-1)}
		}
		conn.Do(&req, func(resp wireclient.Response, err error) {
			defer wg.Done()
			if err != nil {
				log.Fatalf("pipelined request: %v", err)
			}
		})
	}
	wg.Wait()
	elapsed := time.Since(t0)
	conn.Close()
	fmt.Printf("pipelined %d binary requests on one connection in %v (%.0f req/s)\n",
		burst, elapsed.Round(time.Millisecond), burst/elapsed.Seconds())

	// Give the tuner a moment, then show what it measured on a follower.
	time.Sleep(time.Second)
	for id, s := range servers {
		st := s.Status()
		if st.State == "follower" {
			fmt.Printf("node %d tuned Et: %.1fms (fallback was 300ms — loopback RTT is ~0.05ms)\n", id, st.EtMs)
			break
		}
	}

	// Kill the leader, measure wall-clock failover.
	leadID := lead.Status().ID
	fmt.Printf("\nstopping leader node %d...\n", leadID)
	start := time.Now()
	lead.Stop()
	delete(servers, leadID)
	newLead := waitLeader(servers)
	fmt.Printf("node %d took over after %v (wall clock)\n", newLead.Status().ID, time.Since(start).Round(time.Millisecond))

	// The data survived the failover; the group client walks past the
	// dead member to the new leader.
	resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "city-0"})
	if err != nil || resp.Status != wireclient.StatusOK {
		log.Fatalf("get after failover: %v %s", err, resp.Status)
	}
	fmt.Printf("city-0 = %q from the new leader — state intact\n", resp.Value)
}

func waitLeader(servers map[raft.ID]*server.Server) *server.Server {
	for {
		for _, s := range servers {
			if s.Status().State == "leader" {
				return s
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func reserve(network string) string {
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}
