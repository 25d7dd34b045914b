package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"syscall"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

// Real-path constants, identical on every commit. The fleet is the one
// `dynabench load` boots: static etcd-default tuner, 200µs group-commit
// window, in-memory log. No delay is injected between nodes: on loopback,
// real-path latency is processor time plus the program's own windows and
// timers.
const (
	staticEt    = time.Second
	staticH     = 100 * time.Millisecond
	batchWindow = 200 * time.Microsecond
	leaderWait  = 15 * time.Second
	// bootAttempts bounds retries of a boot or restart that found one of
	// its reserved ports taken.
	bootAttempts = 5
)

var quiet = log.New(io.Discard, "", 0)

// fleetConfig sizes one in-process loopback Raft group behind a binary
// Front and carries the hooks the traced run passes counting wrappers
// through (server.Config.{Tuner,Tracer,Persister}).
type fleetConfig struct {
	nodes     int
	tuner     func() raft.Tuner          // default: static Et 1s / h 100ms
	tracer    raft.Tracer                // optional
	persister func(i int) raft.Persister // optional; i is the node index
}

type fleet struct {
	cfgs  []server.Config
	nodes []*server.Server // nil while a node is killed
	front *server.BinFront
}

// startFleet boots the fleet. Listen ports are reserved and released
// before the nodes bind them, so an outbound connection can take one in
// between; a boot that loses that race is simply tried again.
func startFleet(fc fleetConfig) (*fleet, error) {
	if fc.tuner == nil {
		fc.tuner = func() raft.Tuner { return raft.NewStaticTuner(staticEt, staticH) }
	}
	for attempt := 1; ; attempt++ {
		f, err := bootFleet(fc)
		if err == nil || attempt == bootAttempts || !errors.Is(err, syscall.EADDRINUSE) {
			return f, err
		}
	}
}

func bootFleet(fc fleetConfig) (*fleet, error) {
	peers := map[raft.ID]transport.PeerAddr{}
	bins := make([]string, fc.nodes)
	for i := 0; i < fc.nodes; i++ {
		tcp, err := reservePort("tcp")
		if err != nil {
			return nil, err
		}
		udp, err := reservePort("udp")
		if err != nil {
			return nil, err
		}
		peers[raft.ID(i+1)] = transport.PeerAddr{TCP: tcp, UDP: udp}
		// Binary ports are fixed up front so a restarted node comes back
		// where the Front's pools expect it.
		if bins[i], err = reservePort("tcp"); err != nil {
			return nil, err
		}
	}
	f := &fleet{nodes: make([]*server.Server, fc.nodes)}
	for i := 0; i < fc.nodes; i++ {
		id := raft.ID(i + 1)
		cfg := server.Config{
			ID:          id,
			Peers:       peers,
			Listen:      peers[id],
			BinListen:   bins[i],
			Tuner:       fc.tuner(),
			Tracer:      fc.tracer,
			Logger:      quiet,
			BatchWindow: batchWindow,
		}
		if fc.persister != nil {
			cfg.Persister = fc.persister(i)
		}
		f.cfgs = append(f.cfgs, cfg)
		s, err := server.Start(cfg)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("start node %d: %w", id, err)
		}
		f.nodes[i] = s
	}
	if _, err := f.waitLeader(leaderWait); err != nil {
		f.stop()
		return nil, err
	}
	front, err := server.StartBinFront("127.0.0.1:0", [][]string{bins}, wireclient.PoolConfig{Size: 4}, quiet)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front = front
	return f, nil
}

// waitLeader polls until a live node reports itself leader.
func (f *fleet) waitLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, s := range f.nodes {
			if s != nil && s.Status().State == "leader" {
				return i, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return -1, fmt.Errorf("no leader within %v", timeout)
}

// maxTerm is the highest term any live node reports; its change over a
// measured window counts elections that window should not have had.
func (f *fleet) maxTerm() uint64 {
	var t uint64
	for _, s := range f.nodes {
		if s != nil {
			t = max(t, s.Status().Term)
		}
	}
	return t
}

func (f *fleet) kill(i int) {
	f.nodes[i].Stop()
	f.nodes[i] = nil
}

// restart brings node i back on its old addresses with a fresh tuner,
// resuming from restored (what its persister kept).
func (f *fleet) restart(i int, tuner raft.Tuner, restored *raft.Restored) error {
	cfg := f.cfgs[i]
	cfg.Tuner = tuner
	cfg.Restored = restored
	for attempt := 1; ; attempt++ {
		s, err := server.Start(cfg)
		if err == nil {
			f.nodes[i] = s
			return nil
		}
		if attempt == bootAttempts || !errors.Is(err, syscall.EADDRINUSE) {
			return fmt.Errorf("restart node %d: %w", cfg.ID, err)
		}
		time.Sleep(50 * time.Millisecond) // a short-lived connection holds the port
	}
}

func (f *fleet) stop() {
	if f.front != nil {
		f.front.Close()
	}
	for _, s := range f.nodes {
		if s != nil {
			s.Stop()
		}
	}
}

// reservePort grabs an ephemeral loopback port and releases it for a
// server to re-bind (the fixture race loadharness accepts too).
func reservePort(network string) (string, error) {
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer ln.Close()
		return ln.Addr().String(), nil
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer pc.Close()
	return pc.LocalAddr().String(), nil
}
