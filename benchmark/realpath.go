package main

import (
	"errors"
	"fmt"
	"time"

	"dynatune/internal/wireclient"
)

const (
	// loadConns is the connection and generator-thread count: this box's
	// two cores. Pipelining supplies concurrency, not sockets.
	loadConns = 2
	// slaMs is the real-path latency limit behind sla_frac.
	slaMs = 10.0
	// warmUp runs the workload's own load before the measured window so
	// pools are dialled, heaps grown and the batcher in steady state; it
	// is part of setup_s.
	warmUp = time.Second
	// setupRepeats is how many times a run sets up; setup_s is the median,
	// because the boot election's timeout is randomised by design.
	setupRepeats = 3
)

// realSpec is one real-path workload: closed loop at conns × depth, or
// open loop at rate when rate > 0.
type realSpec struct {
	depth     int
	rate      float64
	writeFrac float64
}

var realSpecs = map[string]realSpec{
	"put_closed": {depth: 64, writeFrac: 1},
	"mixed_open": {rate: 20000, writeFrac: 0.1},
	"put_serial": {depth: 1, writeFrac: 1},
}

func (s realSpec) shape() string {
	if s.rate > 0 {
		return fmt.Sprintf("open loop %.0f req/s over %d conns, %.0f%% put / %.0f%% lease-read get",
			s.rate, loadConns, s.writeFrac*100, (1-s.writeFrac)*100)
	}
	return fmt.Sprintf("closed loop %d conns x %d outstanding, all put", loadConns, s.depth)
}

// rig is a booted fleet with the load connections dialled to its Front
// and every key preloaded.
type rig struct {
	fleet *fleet
	conns []*wireclient.Conn
	ks    *keyspace
}

func (r *rig) senders() []sender {
	out := make([]sender, len(r.conns))
	for i, c := range r.conns {
		out[i] = c
	}
	return out
}

func (r *rig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.fleet.stop()
}

// newRig boots the fleet, dials, and writes every key once so reads hit
// and the read-back check covers the whole keyspace.
func newRig(fc fleetConfig) (*rig, error) {
	f, err := startFleet(fc)
	if err != nil {
		return nil, err
	}
	r := &rig{fleet: f, ks: newKeyspace()}
	for i := 0; i < loadConns; i++ {
		c, err := wireclient.Dial(f.front.Addr(), 5*time.Second, wireclient.ConnConfig{})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial front: %w", err)
		}
		r.conns = append(r.conns, c)
	}
	failed := 0
	val := make([]byte, 0, valueBytes)
	pipelined(r.conns[0], keyCount, 64,
		func(k int) wireclient.Request { req, _ := r.ks.put(k, val); return req },
		func(k int, resp wireclient.Response, err error) {
			ok := respOK(resp, err)
			r.ks.settle(k, r.ks.next[k], ok)
			if !ok {
				failed++
			}
		})
	if failed > 0 {
		r.close()
		return nil, fmt.Errorf("preload: %d of %d puts failed", failed, keyCount)
	}
	return r, nil
}

// pipelined issues n requests over conn with at most outstanding in
// flight and hands every outcome to handle on the caller's goroutine.
func pipelined(conn sender, n, outstanding int, build func(i int) wireclient.Request,
	handle func(i int, resp wireclient.Response, err error)) {
	type outcome struct {
		i    int
		resp wireclient.Response
		err  error
	}
	results := make(chan outcome, outstanding) // sized to the sends in flight
	recv := func() {
		o := <-results
		handle(o.i, o.resp, o.err)
	}
	for i := 0; i < n; i++ {
		if i >= outstanding {
			recv()
		}
		req := build(i)
		conn.Do(&req, func(resp wireclient.Response, err error) { results <- outcome{i, resp, err} })
	}
	for i := 0; i < min(n, outstanding); i++ {
		recv()
	}
}

// drive runs spec's load for window.
func (r *rig) drive(spec realSpec, window time.Duration, seed int64, rec *spanRec) loadResult {
	if spec.rate > 0 {
		return runOpen(r.senders(), openSpec{rate: spec.rate, writeFrac: spec.writeFrac, window: window, seed: seed}, r.ks, rec)
	}
	return runClosed(r.senders(), spec.depth, r.ks, window, rec)
}

// setupReal is everything between workload start and the first measured
// request: boot, election, dial, preload, warm-up.
func setupReal(spec realSpec, seed int64, fc fleetConfig) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := newRig(fc)
	if err != nil {
		return nil, 0, err
	}
	r.drive(spec, warmUp, seed-1, nil)
	return r, time.Since(t0), nil
}

// check is the correctness half of every real-path run. After quiesce:
// every key reads back through the Front as its last acknowledged value,
// and the replicas' stores are equal.
func (r *rig) check() error {
	if n := r.ks.bad.Load(); n > 0 {
		return fmt.Errorf("%d gets returned another key's value", n)
	}
	lead, err := r.fleet.waitLeader(leaderWait)
	if err != nil {
		return err
	}
	want := r.fleet.nodes[lead].Status().Committed
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range r.fleet.nodes {
		for s.Status().Applied < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d applied %d of %d committed entries after quiesce", s.Status().ID, s.Status().Applied, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var errs []error
	pipelined(r.conns[0], keyCount, 64,
		func(k int) wireclient.Request { return wireclient.Request{Op: wireclient.OpGet, Key: r.ks.names[k]} },
		func(want int, resp wireclient.Response, err error) {
			name := r.ks.names[want]
			switch k, seq, ok := parseValue(resp.Value); {
			case !respOK(resp, err):
				errs = append(errs, fmt.Errorf("read back %s: %v %s %s", name, err, resp.Status, resp.Err))
			case !ok || k != want:
				errs = append(errs, fmt.Errorf("read back %s: not this key's value", name))
			case seq != r.ks.acked[want] && !(r.ks.unsure[want] && seq > r.ks.acked[want]):
				errs = append(errs, fmt.Errorf("read back %s: sequence %d, last acknowledged %d", name, seq, r.ks.acked[want]))
			}
		})
	if len(errs) > 0 {
		return fmt.Errorf("%d keys read back wrong, first: %w", len(errs), errs[0])
	}
	for _, s := range r.fleet.nodes[1:] {
		if !r.fleet.nodes[0].Store().Equal(s.Store()) {
			return errors.New("replica stores differ after quiesce")
		}
	}
	return nil
}

// realRun is one untraced real-path measurement.
type realRun struct {
	load        loadResult
	setupS      []float64 // one per set-up
	termChanges uint64
	checkErr    error
}

// runReal sets up setupRepeats times (tearing all but the last down),
// measures for window on the last, and checks correctness.
func runReal(spec realSpec, seed int64, window time.Duration) (*realRun, error) {
	run := &realRun{}
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		var took time.Duration
		var err error
		if r, took, err = setupReal(spec, seed, fleetConfig{nodes: 3}); err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, took.Seconds())
	}
	defer r.close()
	term := r.fleet.maxTerm()
	run.load = r.drive(spec, window, seed, nil)
	run.termChanges = r.fleet.maxTerm() - term
	run.checkErr = r.check()
	return run, nil
}
