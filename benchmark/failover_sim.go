package main

import (
	"fmt"
	"sort"
	"time"

	"dynatune/internal/scenario"
	"dynatune/internal/scenario/bind"
)

// failover_sim is the paper's Fig. 4 set-up on the deterministic
// simulator: the registry specs `paper-elections` (Dynatune) and
// `paper-elections-raft` (stock timeouts) — N=5, injected RTT 100 ms, 0%
// loss, leader pause, 4 s settle — cloned with the run's seeds. Results
// are in virtual time and repeat exactly per seed; wall time measures the
// testbed.
const (
	simTrials = 1000 // per variant per round, as in the paper
	// simSlaMs is the out-of-service limit behind sla_frac on this
	// workload: stock Raft's minimum election timeout, i.e. back in
	// service before the baseline could even have detected the failure.
	simSlaMs = 1000.0
	// simInjected states the delay the simulator injects between nodes.
	simInjected = "simulated network, injected RTT 100 ms, 0% loss"
)

// simRound is both variants run once on one seed.
type simRound struct {
	dyn, raft *scenario.FailoverResult
	wall      time.Duration
}

func runSimRound(seed int64, trials int) (simRound, error) {
	var out simRound
	t0 := time.Now()
	for _, v := range []struct {
		name string
		dst  **scenario.FailoverResult
	}{{"paper-elections", &out.dyn}, {"paper-elections-raft", &out.raft}} {
		spec, ok := scenario.Lookup(v.name)
		if !ok {
			return out, fmt.Errorf("registry has no spec %q", v.name)
		}
		spec.Seed, spec.Trials = seed, trials
		// One worker: trials run sequentially, so wall time is one core's.
		res, err := bind.RunWorkers(spec, 1)
		if err != nil {
			return out, fmt.Errorf("%s: %w", v.name, err)
		}
		if res.Failover == nil {
			return out, fmt.Errorf("%s: no failover result", v.name)
		}
		*v.dst = res.Failover
	}
	out.wall = time.Since(t0)
	return out, nil
}

// roundSeed spreads the run seed so neighbouring seeds share no rounds.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// simPooled is the virtual-time outcome pooled over a fixed number of
// rounds, so it depends on the seed and --seconds only, never on how fast
// this machine ran.
type simPooled struct {
	rounds                   int
	trials, failedTrials     int // Dynatune variant
	raftFailed               int
	detMs, otsMs             []float64 // Dynatune, sorted
	raftDetMean, raftOtsMean float64
	splitRounds              int
	randTimeoutMs            float64
	orderErr                 error // a trial with detection after OTS
}

func (p *simPooled) add(r simRound) {
	p.rounds++
	p.trials += r.dyn.Trials
	p.failedTrials += r.dyn.FailedTrials
	p.raftFailed += r.raft.FailedTrials
	p.detMs = append(p.detMs, r.dyn.DetectionMs...)
	p.otsMs = append(p.otsMs, r.dyn.OTSMs...)
	p.splitRounds += r.dyn.SplitVoteRounds
	// Means of equal-sized rounds pool as running means.
	n := float64(p.rounds)
	p.raftDetMean += (mean(r.raft.DetectionMs) - p.raftDetMean) / n
	p.raftOtsMean += (mean(r.raft.OTSMs) - p.raftOtsMean) / n
	p.randTimeoutMs += (r.dyn.MeanRandTimeoutMs - p.randTimeoutMs) / n
	for _, f := range []*scenario.FailoverResult{r.dyn, r.raft} {
		if len(f.DetectionMs) != len(f.OTSMs) {
			p.orderErr = fmt.Errorf("%s: %d detection samples for %d OTS samples", f.Variant, len(f.DetectionMs), len(f.OTSMs))
			continue
		}
		for i := range f.DetectionMs {
			if f.DetectionMs[i] > f.OTSMs[i] {
				p.orderErr = fmt.Errorf("%s: trial detected the failure (%.1f ms) after service resumed (%.1f ms)", f.Variant, f.DetectionMs[i], f.OTSMs[i])
			}
		}
	}
}

func (p *simPooled) finish() {
	sort.Float64s(p.detMs)
	sort.Float64s(p.otsMs)
}

func (p *simPooled) detectCut() float64 { return 1 - mean(p.detMs)/p.raftDetMean }
func (p *simPooled) otsCut() float64    { return 1 - mean(p.otsMs)/p.raftOtsMean }

// simRun is one failover_sim measurement.
type simRun struct {
	pooled    simPooled
	setupS    []float64
	trials    int       // both variants, every round run
	roundWall []float64 // seconds per round
}

// pooledRounds is how many rounds feed the virtual-time metrics: sized to
// fit well inside the window on this box, and fixed by --seconds alone.
func pooledRounds(window time.Duration) int { return max(1, int(window.Seconds()/2)) }

// setupSim is this workload's set-up: resolve the specs and run one small
// round so the first measured round does not pay first-use costs.
func setupSim(seed int64) (time.Duration, error) {
	t0 := time.Now()
	_, err := runSimRound(seed-1, simTrials/5)
	return time.Since(t0), err
}

// runSimRounds runs whole rounds until window has passed, and at least
// pooledRounds of them.
func runSimRounds(seed int64, window time.Duration, rec *spanRec) (*simRun, error) {
	run := &simRun{}
	pool := pooledRounds(window)
	start := time.Now()
	for r := 0; r < pool || time.Since(start) < window; r++ {
		t0 := time.Now()
		round, err := runSimRound(roundSeed(seed, r), simTrials)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.addAll([]span{rec.span("scenario.round", 0, 0, t0, time.Now())})
		}
		if r < pool {
			run.pooled.add(round)
		}
		run.trials += round.dyn.Trials + round.raft.Trials
		run.roundWall = append(run.roundWall, round.wall.Seconds())
	}
	run.pooled.finish()
	return run, nil
}

// opsPerS is failover trials per wall-second, from the median round so
// one descheduled round does not move it.
func (r *simRun) opsPerS() float64 { return 2 * simTrials / median(r.roundWall) }

// runSim is one untraced failover_sim measurement: set up setupRepeats
// times, then measure.
func runSim(seed int64, window time.Duration) (*simRun, error) {
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		took, err := setupSim(seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	run, err := runSimRounds(seed, window, nil)
	if err != nil {
		return nil, err
	}
	run.setupS = setupS
	return run, nil
}
