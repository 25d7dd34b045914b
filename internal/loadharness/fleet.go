// Package loadharness drives the real serving path at production
// concurrency: it boots a sharded fleet of real Raft nodes (the same
// code cmd/dynatuned runs) on loopback, opens tens of thousands of
// pipelined binary connections against the sharded Front, generates an
// OPEN-LOOP arrival schedule — requests fire on the clock whether or not
// earlier ones returned, so queueing delay is measured instead of hidden
// (no coordinated omission) — and reports the closed-SLA latency profile
// (p50/p90/p99/p999) that the simulator's ramp predicts.
package loadharness

import (
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

// FleetConfig sizes an in-process loopback fleet.
type FleetConfig struct {
	// Groups is the number of Raft groups (default 4).
	Groups int
	// NodesPerGroup is each group's replication factor (default 3).
	NodesPerGroup int
	// Tuner builds each node's tuner (default: static 150ms/15ms — the
	// harness measures the serving path, not elections).
	Tuner func() raft.Tuner
	// Logger receives node logs (default: discard — 100k-conn runs drown
	// stdout otherwise).
	Logger *log.Logger
}

// Fleet is a running loopback deployment: G groups of real servers
// behind one binary Front.
type Fleet struct {
	Servers  [][]*server.Server
	BinFront *server.BinFront
	BinAddr  string     // binary Front listen address
	NodeBins [][]string // per-group member binary addresses (worker fronts dial these)
}

// StartFleet boots the fleet on loopback and waits for every group to
// elect a leader.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Groups <= 0 {
		cfg.Groups = 4
	}
	if cfg.NodesPerGroup <= 0 {
		cfg.NodesPerGroup = 3
	}
	if cfg.Tuner == nil {
		cfg.Tuner = func() raft.Tuner {
			return raft.NewStaticTuner(150*time.Millisecond, 15*time.Millisecond)
		}
	}
	lg := cfg.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	f := &Fleet{}
	binURLs := make([][]string, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		srvs, err := startGroup(cfg.NodesPerGroup, cfg.Tuner, lg)
		if err != nil {
			f.Stop()
			return nil, fmt.Errorf("loadharness: group %d: %w", g, err)
		}
		f.Servers = append(f.Servers, srvs)
		binURLs[g] = make([]string, len(srvs))
		for i, s := range srvs {
			binURLs[g][i] = s.BinAddr()
		}
	}
	f.NodeBins = binURLs
	for g, srvs := range f.Servers {
		if err := waitLeader(srvs, 15*time.Second); err != nil {
			f.Stop()
			return nil, fmt.Errorf("loadharness: group %d: %w", g, err)
		}
	}
	bf, err := server.StartBinFront("127.0.0.1:0", binURLs, wireclient.PoolConfig{Size: 4}, lg)
	if err != nil {
		f.Stop()
		return nil, err
	}
	f.BinFront = bf
	f.BinAddr = bf.Addr()
	return f, nil
}

// BatchStats aggregates every node's group-commit counters (in a healthy
// fleet only leaders propose, so this sums the per-group leaders).
func (f *Fleet) BatchStats() server.BatchStats {
	var agg server.BatchStats
	for _, srvs := range f.Servers {
		for _, s := range srvs {
			st := s.BatchStats()
			agg.ClientOps += st.ClientOps
			agg.Entries += st.Entries
			agg.Ops += st.Ops
			agg.Batches += st.Batches
			agg.FlushWindow += st.FlushWindow
			agg.FlushOps += st.FlushOps
			agg.FlushBytes += st.FlushBytes
			agg.FlushDrain += st.FlushDrain
			if st.MaxDepth > agg.MaxDepth {
				agg.MaxDepth = st.MaxDepth
			}
		}
	}
	return agg
}

// Stop tears the whole fleet down.
func (f *Fleet) Stop() {
	if f.BinFront != nil {
		f.BinFront.Close()
	}
	for _, srvs := range f.Servers {
		for _, s := range srvs {
			if s != nil {
				s.Stop()
			}
		}
	}
}

// startGroup boots one n-node Raft group on loopback ephemeral ports.
func startGroup(n int, mkTuner func() raft.Tuner, lg *log.Logger) ([]*server.Server, error) {
	peers := map[raft.ID]transport.PeerAddr{}
	for i := 1; i <= n; i++ {
		tcp, err := reservePort("tcp")
		if err != nil {
			return nil, err
		}
		udp, err := reservePort("udp")
		if err != nil {
			return nil, err
		}
		peers[raft.ID(i)] = transport.PeerAddr{TCP: tcp, UDP: udp}
	}
	srvs := make([]*server.Server, 0, n)
	for i := 1; i <= n; i++ {
		s, err := server.Start(server.Config{
			ID:        raft.ID(i),
			Peers:     peers,
			Listen:    peers[raft.ID(i)],
			BinListen: "127.0.0.1:0",
			Tuner:     mkTuner(),
			Logger:    lg,
		})
		if err != nil {
			for _, p := range srvs {
				p.Stop()
			}
			return nil, err
		}
		srvs = append(srvs, s)
	}
	return srvs, nil
}

func waitLeader(srvs []*server.Server, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, s := range srvs {
			if s.Status().State == "leader" {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("no leader within %v", timeout)
}

// reservePort grabs an ephemeral loopback port and releases it for the
// server to re-bind (the usual test-fixture race, harmless on loopback).
func reservePort(network string) (string, error) {
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr, nil
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr, nil
}
