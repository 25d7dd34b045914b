package main

import (
	"errors"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/kv"
	"dynatune/internal/metrics"
	"dynatune/internal/raft"
	"dynatune/internal/storage"
	"dynatune/internal/wireclient"
)

// The traced run. Per-layer numbers come from three places, all outside
// the program: single-layer probes (probes_micro.go), probes against
// booted fleets through their public functions and existing hooks (this
// file), and the selected workload run once untraced and once with client
// spans on, whose difference is the tracing overhead.

// maxRateSteps are the fixed offered rates behind client.max_rate_ok.
var maxRateSteps = []float64{10000, 20000, 40000}

// failoverTrials kill-leader trials feed server.failover_ots_p50_ms.
const failoverTrials = 3

// procSample is a point reading of this process's CPU and GC-CPU seconds.
type procSample struct{ cpu, gc float64 }

func (p procSample) since(before procSample) procSample {
	return procSample{p.cpu - before.cpu, p.gc - before.gc}
}

func readProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return procSample{cpu: tv(ru.Utime) + tv(ru.Stime), gc: s[0].Value.Float64()}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // as above
	return float64(ru.Maxrss) / 1024            // Linux reports KiB
}

// segment is what one run of the selected workload yields for the
// workload-scoped per-layer metrics.
type segment struct {
	opsPerS   float64
	ops       int
	lat       latSummary
	lateP99   float64
	attempted int
	failed    int
	proc      procSample // consumed over the segment
}

func realSegment(r *rig, spec realSpec, window time.Duration, seed int64, rec *spanRec) segment {
	before := readProc()
	load := r.drive(spec, window, seed, rec)
	return segment{
		opsPerS: load.opsPerS(), ops: len(load.okLats),
		lat: summarize(load.okLats), lateP99: quantileOrZero(metrics.SortedCopy(load.lateMs), 0.99),
		attempted: load.attempted, failed: load.failed,
		proc: readProc().since(before),
	}
}

func simSegment(seed int64, window time.Duration, rec *spanRec) (segment, *simRun, error) {
	before := readProc()
	run, err := runSimRounds(seed, window, rec)
	if err != nil {
		return segment{}, nil, err
	}
	p := &run.pooled
	return segment{
		opsPerS: run.opsPerS(), ops: run.trials, lat: summarize(p.otsMs),
		attempted: p.trials, failed: p.failedTrials + p.raftFailed,
		proc: readProc().since(before),
	}, run, nil
}

// simLayerValues fills the sim-side per-layer metrics from pooled rounds.
func simLayerValues(p *simPooled, out layerValues) {
	out["dynatune.detect_p50_ms"] = quantileOrZero(p.detMs, 0.5)
	out["dynatune.detect_cut_frac"] = p.detectCut()
	out["dynatune.ots_cut_frac"] = p.otsCut()
	out["scenario.split_rounds_per_trial"] = float64(p.splitRounds) / float64(p.trials)
	out["scenario.rand_timeout_ms"] = p.randTimeoutMs
}

// tracedOutcome is what the traced run hands back to main.
type tracedOutcome struct {
	values    layerValues
	attempted int
	failed    int
	checkErr  error
	notes     []string
}

// runTraced produces every per-layer metric. Sub-windows are fixed shares
// of window, so the whole run scales with --seconds.
func runTraced(workload string, seed int64, window time.Duration, scratch string, rec *spanRec) (*tracedOutcome, error) {
	out := &tracedOutcome{values: layerValues{}}
	v := out.values
	share := func(f float64) time.Duration { return time.Duration(float64(window) * f) }

	if err := runMicroProbes(share(0.004), scratch, rec, v); err != nil {
		return nil, err
	}

	// Boot the static fleets together: each mostly waits out its election
	// timeout, so three boots cost one.
	tracer := &eventTracer{rec: rec}
	wals := &walSet{scratch: scratch}
	defer wals.cleanup()
	boots := []fleetConfig{
		{nodes: 3, tracer: tracer},
		{nodes: 1},
		{nodes: 3, persister: wals.persister},
	}
	rigs := make([]*rig, len(boots))
	errs := make([]error, len(boots))
	var wg sync.WaitGroup
	for i := range boots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rigs[i], errs[i] = newRig(boots[i])
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, r := range rigs {
			if r != nil {
				r.close()
			}
		}
	}()
	if err := errors.Join(append(errs, wals.err)...); err != nil {
		return nil, err
	}
	main, single, durable := rigs[0], rigs[1], rigs[2]
	term := main.fleet.maxTerm()

	// The selected workload, untraced then traced.
	var base, traced segment
	if spec, real := realSpecs[workload]; real {
		main.drive(spec, warmUp, seed-1, nil)
		base = realSegment(main, spec, share(0.15), seed, nil)
		t0 := time.Now()
		traced = realSegment(main, spec, share(0.15), seed+1, rec)
		rec.addAll([]span{rec.span("workload."+workload, 0, 0, t0, time.Now())})
		// The sim-side layers still get a (small) round of their own.
		round, err := runSimRound(roundSeed(seed, 0), simTrials/5)
		if err != nil {
			return nil, err
		}
		var p simPooled
		p.add(round)
		p.finish()
		simLayerValues(&p, v)
	} else {
		var err error
		if base, _, err = simSegment(seed, share(0.15), nil); err != nil {
			return nil, err
		}
		var run *simRun
		if traced, run, err = simSegment(seed, share(0.15), rec); err != nil {
			return nil, err
		}
		simLayerValues(&run.pooled, v)
		out.checkErr = run.pooled.orderErr
	}
	out.attempted, out.failed = base.attempted+traced.attempted, base.failed+traced.failed
	v["client.lat_p99_ms"] = traced.lat.p99
	v["client.lat_p999_ms"] = traced.lat.p999
	v["client.gen_late_p99_ms"] = traced.lateP99
	v["client.trace_overhead_frac"] = 1 - traced.opsPerS/base.opsPerS
	v["proc.cpu_s_per_kop"] = base.proc.cpu / float64(base.ops) * 1000
	v["proc.gc_cpu_frac"] = base.proc.gc / base.proc.cpu
	if !supported(traced.lat.n, 0.999) {
		out.notes = append(out.notes, fmt.Sprintf("client.lat_p999_ms unsupported: %d samples leave fewer than %d beyond it", traced.lat.n, minBeyond))
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"probe.put_closed_shape", func() error { return probeSaturated(main, share(0.1), v) }},
		{"probe.hops", func() error { return probeHops(main, single, share(0.02), v) }},
		{"probe.propose", func() error { return probePropose(main, share(0.02), v) }},
		{"probe.max_rate", func() error { return probeMaxRate(main, share(0.05), seed, v) }},
		{"probe.durable", func() error { return probeDurable(durable, wals.wals, share(0.1), v) }},
	}
	for _, s := range steps {
		if err := rec.phase(s.name, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	v["server.term_changes"] = float64(main.fleet.maxTerm() - term)
	for _, r := range rigs {
		if err := r.check(); err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		r.close()
	}
	rigs = nil

	if err := rec.phase("probe.failover", func() error { return probeFailover(rec, v) }); err != nil {
		return nil, fmt.Errorf("probe.failover: %w", err)
	}
	v["proc.peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// walSet hands each node of the durable fleet a storage.WAL (fsync on)
// in its own directory under scratch, behind a counting wrapper.
type walSet struct {
	scratch string
	wals    []*countingPersister
	files   []*storage.WAL
	dirs    []string
	err     error // first failure; the fleet boot reports it
}

func (ws *walSet) persister(int) raft.Persister {
	dir, err := os.MkdirTemp(ws.scratch, "wal-fleet-")
	if err != nil {
		ws.err = errors.Join(ws.err, err)
		return nil
	}
	ws.dirs = append(ws.dirs, dir)
	w, _, err := storage.Open(dir, storage.WALOptions{})
	if err != nil {
		ws.err = errors.Join(ws.err, err)
		return nil
	}
	ws.files = append(ws.files, w)
	cp := &countingPersister{Persister: w}
	ws.wals = append(ws.wals, cp)
	return cp
}

// cleanup closes and removes the WALs; call it after the fleet stopped.
func (ws *walSet) cleanup() {
	for _, w := range ws.files {
		w.Close() //nolint:errcheck // scratch data, about to be deleted
	}
	for _, d := range ws.dirs {
		os.RemoveAll(d)
	}
}

// probeSaturated drives the put_closed shape and reads the batcher's own
// counters and the leader's commit/apply gap while it runs.
func probeSaturated(r *rig, window time.Duration, v layerValues) error {
	lead, err := r.fleet.waitLeader(leaderWait)
	if err != nil {
		return err
	}
	leader := r.fleet.nodes[lead]
	before := leader.BatchStats()
	stop := make(chan struct{})
	var lag []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				st := leader.Status()
				lag = append(lag, float64(st.Committed-st.Applied))
			}
		}
	}()
	load := r.drive(realSpecs["put_closed"], window, 0, nil)
	close(stop)
	wg.Wait()
	if load.failed > 0 {
		return fmt.Errorf("%d of %d puts failed", load.failed, load.attempted)
	}
	after := leader.BatchStats()
	ops, batches := after.Ops-before.Ops, after.Batches-before.Batches
	if batches == 0 || after.ClientOps == before.ClientOps {
		return errors.New("leader batched nothing (leadership moved?)")
	}
	v["batcher.propose_amp"] = float64(after.Entries-before.Entries) / float64(after.ClientOps-before.ClientOps)
	v["batcher.mean_depth"] = float64(ops) / float64(batches)
	v["batcher.flush_window_frac"] = float64(after.FlushWindow-before.FlushWindow) / float64(batches)
	sort.Float64s(lag)
	v["raft.apply_lag_p99"] = quantileOrZero(lag, 0.99)
	return nil
}

// serialP50 issues requests on conn one at a time for window (at least
// 20) and returns their median latency in ms; a failed request aborts.
func serialP50(conn sender, window time.Duration, build func(i int) wireclient.Request) (float64, error) {
	type outcome struct {
		resp wireclient.Response
		err  error
	}
	done := make(chan outcome, 1)
	i := 0
	lats, err := timedSamples(window, 20, func() (float64, error) {
		req := build(i)
		i++
		t0 := time.Now()
		conn.Do(&req, func(resp wireclient.Response, err error) { done <- outcome{resp, err} })
		o := <-done
		if o.err != nil {
			return 0, o.err
		}
		if o.resp.Status != wireclient.StatusOK {
			return 0, fmt.Errorf("%s: %s %s", req.Op, o.resp.Status, o.resp.Err)
		}
		return ms(time.Since(t0)), nil
	})
	return median(lats), err
}

// probeHops times one serial request at a time along each path a client
// request can take, so the Front's and a node's hop can be told apart:
// Front put = front hop + node put, node put = wireclient hop + propose.
func probeHops(main, single *rig, window time.Duration, v layerValues) error {
	lead, err := main.fleet.waitLeader(leaderWait)
	if err != nil {
		return err
	}
	node, err := wireclient.Dial(main.fleet.nodes[lead].BinAddr(), 5*time.Second, wireclient.ConnConfig{})
	if err != nil {
		return err
	}
	defer node.Close()
	val := make([]byte, 0, valueBytes)
	putTo := func(r *rig) func(int) wireclient.Request {
		return func(i int) wireclient.Request {
			k := i % keyCount
			req, seq := r.ks.put(k, val)
			// Serial and checked by serialLat: every Put here is acknowledged.
			r.ks.settle(k, seq, true)
			return req
		}
	}
	get := func(i int) wireclient.Request {
		return wireclient.Request{Op: wireclient.OpGet, Key: main.ks.names[i%keyCount]}
	}
	ping := func(int) wireclient.Request { return wireclient.Request{Op: wireclient.OpPing} }
	for _, p := range []struct {
		name  string
		conn  sender
		build func(int) wireclient.Request
	}{
		{"wireclient.hop_p50_ms", node, ping},
		{"wireclient.node_put_p50_ms", node, putTo(main)},
		{"server.node_get_p50_ms", node, get},
		{"server.front_put_p50_ms", main.conns[0], putTo(main)},
		{"server.front_get_p50_ms", main.conns[0], get},
		{"server.single_node_put_p50_ms", single.conns[0], putTo(single)},
	} {
		p50, err := serialP50(p.conn, window, p.build)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		v[p.name] = p50
	}
	v["server.front_hop_p50_ms"] = v["server.front_put_p50_ms"] - v["wireclient.node_put_p50_ms"]
	return nil
}

// probePropose calls Server.Propose in process: serially for the latency
// of one replication round without any client hop, then from 128
// goroutines for the propose path's capacity.
func probePropose(r *rig, window time.Duration, v layerValues) error {
	lead, err := r.fleet.waitLeader(leaderWait)
	if err != nil {
		return err
	}
	leader := r.fleet.nodes[lead]
	// Keys outside the keyspace, so the read-back check is not disturbed.
	cmd := func(i int) kv.Command {
		return kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("p%04d", i%keyCount), Value: fillValue(nil, i%keyCount, 1)}
	}
	i := 0
	lats, err := timedSamples(window, 20, func() (float64, error) {
		t0 := time.Now()
		err := leader.Propose(cmd(i))
		i++
		return ms(time.Since(t0)), err
	})
	if err != nil {
		return err
	}
	v["server.propose_p50_ms"] = median(lats)

	const outstanding = 128
	counts := make([]int, outstanding)
	errs := make([]error, outstanding)
	end := time.Now().Add(window)
	var wg sync.WaitGroup
	for g := 0; g < outstanding; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(end); i += outstanding {
				if errs[g] = leader.Propose(cmd(i)); errs[g] != nil {
					return
				}
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	v["server.propose_ops_per_s"] = float64(total) / window.Seconds()
	return nil
}

// probeMaxRate offers the mixed_open mix at each fixed rate and reports
// the highest one the fleet answered within the SLA without falling
// behind the schedule.
func probeMaxRate(r *rig, window time.Duration, seed int64, v layerValues) error {
	spec := realSpecs["mixed_open"]
	best := 0.0
	for _, rate := range maxRateSteps {
		spec.rate = rate
		load := r.drive(spec, window, seed, nil)
		sla := slaFrac(load.okLats, load.attempted, slaMs)
		achieved := load.opsPerS()
		if sla >= 0.99 && achieved >= 0.95*rate {
			best = rate
		}
	}
	v["client.max_rate_ok"] = best
	return nil
}

// probeDurable drives the put_closed shape against a fleet whose nodes
// persist through storage.WAL with fsync on, to size what the durable
// path will cost before it becomes the default.
func probeDurable(r *rig, wals []*countingPersister, window time.Duration, v layerValues) error {
	var appends0 uint64
	for _, w := range wals {
		appends0 += w.appends.Load()
	}
	load := r.drive(realSpecs["put_closed"], window, 0, nil)
	if load.failed > 0 {
		return fmt.Errorf("%d of %d puts failed", load.failed, load.attempted)
	}
	var appends uint64
	for _, w := range wals {
		appends += w.appends.Load()
	}
	v["storage.durable_ops_per_s"] = load.opsPerS()
	v["storage.appends_per_op"] = float64(appends-appends0) / float64(load.attempted)
	return nil
}

// probeFailover kills the leader of a fleet running Dynatune tuners under
// a 500 req/s open-loop Put schedule, so requests due while no leader
// exists are counted, and reads detection (first election timeout after
// the kill, from the raft.Tracer hook) and out-of-service time (kill →
// first OK completion of a request scheduled after it).
func probeFailover(rec *spanRec, v layerValues) error {
	const (
		rate    = 500.0
		preKill = 300 * time.Millisecond
		window  = 2 * time.Second
	)
	mkTuner := func() raft.Tuner { return dynatune.MustNew(dynatune.Options{}) }
	tracer := &eventTracer{rec: rec}
	mems := make([]*storage.Memory, 3)
	r, err := newRig(fleetConfig{nodes: 3, tuner: mkTuner, tracer: tracer,
		persister: func(i int) raft.Persister { mems[i] = storage.NewMemory(); return mems[i] }})
	if err != nil {
		return err
	}
	defer r.close()
	var detect, ots []float64
	for trial := 0; trial < failoverTrials; trial++ {
		if err := waitTuned(r.fleet); err != nil {
			return err
		}
		lead, err := r.fleet.waitLeader(leaderWait)
		if err != nil {
			return err
		}
		var mu sync.Mutex
		var killAt, firstOK time.Time
		loadDone := make(chan loadResult, 1)
		go func() {
			loadDone <- runOpen(r.senders()[:1], openSpec{rate: rate, writeFrac: 1, window: window, seed: int64(trial),
				onDone: func(sched, done time.Time, ok bool) {
					mu.Lock()
					if ok && !killAt.IsZero() && sched.After(killAt) && (firstOK.IsZero() || done.Before(firstOK)) {
						firstOK = done
					}
					mu.Unlock()
				}}, r.ks, nil)
		}()
		time.Sleep(preKill)
		mu.Lock()
		killAt = time.Now()
		mu.Unlock()
		r.fleet.kill(lead)
		<-loadDone
		if firstOK.IsZero() {
			return fmt.Errorf("trial %d: no request served within %v of the kill", trial, window-preKill)
		}
		ots = append(ots, ms(firstOK.Sub(killAt)))
		if at, ok := tracer.firstAfter(raft.EventTimeout, killAt); ok {
			detect = append(detect, ms(at.Sub(killAt)))
		}
		if err := r.fleet.restart(lead, mkTuner(), mems[lead].Restored()); err != nil {
			return err
		}
	}
	if len(detect) == 0 {
		return errors.New("no election timeout traced after any kill")
	}
	v["server.failover_ots_p50_ms"] = median(ots)
	v["server.failover_detect_p50_ms"] = median(detect)
	return r.check()
}

// waitTuned waits until every follower's tuner has engaged (its election
// timeout left the 1 s fallback), as it must have before a failure for
// Dynatune's detection to apply.
func waitTuned(f *fleet) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tuned, live := 0, 0
		for _, s := range f.nodes {
			if s == nil {
				continue
			}
			live++
			if st := s.Status(); st.State == "leader" || st.EtMs < ms(dynatune.DefaultEt) {
				tuned++
			}
		}
		if live == len(f.nodes) && tuned == live {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("tuners did not engage within 10s")
}
