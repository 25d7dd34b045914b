// Command dynatuned runs one Dynatune (or baseline Raft) key-value node
// on a real network: UDP heartbeats + TCP consensus, a binary client API
// (-bin) for reads and writes, and an admin HTTP address (-http) serving
// /status — a laptop-scale stand-in for the paper's etcd fork.
//
// A three-node local cluster (cmd/dynactl talks to it):
//
//	dynatuned -id 1 -cluster 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -bin 127.0.0.1:9101 -http 127.0.0.1:8101
//	dynatuned -id 2 -cluster 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -bin 127.0.0.1:9102 -http 127.0.0.1:8102
//	dynatuned -id 3 -cluster 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -bin 127.0.0.1:9103 -http 127.0.0.1:8103
//
// Each node listens for TCP and UDP on its own cluster address (the same
// port number on both protocols). -mode selects dynatune (default), raft,
// raft-low, or fixk.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/storage"
	"dynatune/internal/transport"
)

func main() {
	var (
		id      = flag.Uint64("id", 0, "node ID (must appear in -cluster)")
		cluster = flag.String("cluster", "", "comma-separated id=host:port pairs for every node")
		httpA   = flag.String("http", "", "admin /status listen address (host:port)")
		binA    = flag.String("bin", "", "binary client API listen address (host:port; serves every read and write)")
		mode    = flag.String("mode", "dynatune", "dynatune | raft | raft-low | fixk")
		et      = flag.Duration("et", dynatune.DefaultEt, "fallback/static election timeout")
		hb      = flag.Duration("h", dynatune.DefaultH, "fallback/static heartbeat interval")
		sfactor = flag.Float64("s", dynatune.DefaultSafetyFactor, "dynatune safety factor s")
		x       = flag.Float64("x", dynatune.DefaultArrivalProbability, "dynatune arrival probability x")
		minList = flag.Int("min-list", dynatune.DefaultMinListSize, "dynatune minListSize")
		maxList = flag.Int("max-list", dynatune.DefaultMaxListSize, "dynatune maxListSize")
		fixK    = flag.Int("k", 10, "K for -mode fixk")
		dataDir = flag.String("data-dir", "", "WAL directory; empty runs the node without persistence")
	)
	flag.Parse()

	peers, err := parseCluster(*cluster)
	if err != nil {
		log.Fatalf("dynatuned: %v", err)
	}
	if _, ok := peers[raft.ID(*id)]; !ok || *id == 0 {
		log.Fatalf("dynatuned: -id %d not present in -cluster", *id)
	}

	opts := dynatune.Options{
		SafetyFactor:       *sfactor,
		ArrivalProbability: *x,
		MinListSize:        *minList,
		MaxListSize:        *maxList,
		FallbackEt:         *et,
		FallbackH:          *hb,
	}
	var tuner raft.Tuner
	switch *mode {
	case "dynatune":
		tuner, err = dynatune.NewTuner(opts)
	case "fixk":
		opts.FixK = *fixK
		tuner, err = dynatune.NewTuner(opts)
	case "raft":
		tuner = raft.NewStaticTuner(*et, *hb)
	case "raft-low":
		tuner = raft.NewStaticTuner(*et/10, *hb/10)
	default:
		log.Fatalf("dynatuned: unknown -mode %q", *mode)
	}
	if err != nil {
		log.Fatalf("dynatuned: %v", err)
	}

	var persister raft.Persister
	var restored *raft.Restored
	if *dataDir != "" {
		wal, rec, err := storage.Open(*dataDir, storage.WALOptions{})
		if err != nil {
			log.Fatalf("dynatuned: open WAL in %s: %v", *dataDir, err)
		}
		defer wal.Close()
		persister, restored = wal, rec
		if rec != nil {
			log.Printf("dynatuned: recovered term=%d vote=%d entries=%d snapshot=%v from %s",
				rec.HardState.Term, rec.HardState.Vote, len(rec.Entries), rec.Snapshot != nil, *dataDir)
		}
	}

	s, err := server.Start(server.Config{
		ID:         raft.ID(*id),
		Peers:      peers,
		Listen:     peers[raft.ID(*id)],
		HTTPListen: *httpA,
		BinListen:  *binA,
		Tuner:      tuner,
		Persister:  persister,
		Restored:   restored,
	})
	if err != nil {
		log.Fatalf("dynatuned: %v", err)
	}
	log.Printf("dynatuned: node %d up; raft %s (tcp) / %s (udp); http %s; bin %s; mode %s",
		*id, s.Addrs().TCP, s.Addrs().UDP, s.HTTPAddr(), s.BinAddr(), *mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		t := time.NewTicker(5 * time.Second)
		defer t.Stop()
		for range t.C {
			st := s.Status()
			log.Printf("status: state=%s term=%d leader=%d committed=%d Et=%.0fms",
				st.State, st.Term, st.Leader, st.Committed, st.EtMs)
		}
	}()
	<-sig
	log.Print("dynatuned: shutting down")
	s.Stop()
}

// parseCluster parses "1=host:port,2=host:port,...". The same port number
// serves both TCP (consensus) and UDP (heartbeats).
func parseCluster(spec string) (map[raft.ID]transport.PeerAddr, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing -cluster")
	}
	out := map[raft.ID]transport.PeerAddr{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad cluster element %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("bad node id %q", kv[0])
		}
		if _, dup := out[raft.ID(id)]; dup {
			return nil, fmt.Errorf("duplicate node id %d", id)
		}
		out[raft.ID(id)] = transport.PeerAddr{TCP: kv[1], UDP: kv[1]}
	}
	return out, nil
}
