package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynatune/internal/cluster"
	"dynatune/internal/dynatune"
	"dynatune/internal/netsim"
	"dynatune/internal/scenario/bind"
	"dynatune/internal/shard"
	"dynatune/internal/sim"
	"dynatune/internal/workload"
)

// MicroBench is one hot-path microbenchmark result.
type MicroBench struct {
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// FigureWall is the wall-clock cost of regenerating one (scaled-down)
// figure on this machine.
type FigureWall struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wall_ms"`
}

// ParallelTrials reports the parallel trial runner's wall time against the
// one-worker path, plus the determinism check: both runs must summarize
// identically or the speedup is meaningless.
type ParallelTrials struct {
	Trials       int     `json:"trials"`
	Workers      int     `json:"workers"`
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
	Identical    bool    `json:"identical"`
}

// ScenarioWall times the declarative scenario engine end to end (registry
// lookup → bind realization → sharded execution), so the perf trajectory
// covers the orchestration layer and not just the raw loops.
type ScenarioWall struct {
	Name   string  `json:"name"`
	Scale  float64 `json:"scale"`
	WallMs float64 `json:"wall_ms"`
}

// GroupsPoint is one G of the multi-Raft groups-scaling curve: a fixed
// open-loop ramp over a G-group consolidated deployment. AggOpsPerSec is
// committed requests per virtual second (capacity); OpsPerWallSec and
// EventsPerWallSec measure the simulator itself — the quantity the
// consolidation exists to scale.
type GroupsPoint struct {
	Groups           int     `json:"groups"`
	OfferedRPS       int     `json:"offered_rps"`
	Completed        int     `json:"completed"`
	AggOpsPerSec     float64 `json:"agg_ops_per_sec"`
	WallMs           float64 `json:"wall_ms"`
	OpsPerWallSec    float64 `json:"ops_per_wall_sec"`
	EventsPerWallSec float64 `json:"events_per_wall_sec"`
	// LogicalMsgs / WireMsgs: raft messages submitted vs envelopes that
	// crossed the shared mesh; their ratio is the per-node-pair batching
	// factor.
	LogicalMsgs  uint64  `json:"logical_msgs"`
	WireMsgs     uint64  `json:"wire_msgs"`
	MsgReduction float64 `json:"msg_reduction"`
}

// BenchReport is the BENCH.json schema: the per-PR perf trajectory record
// CI uploads as an artifact.
type BenchReport struct {
	Schema        string                `json:"schema"`
	GeneratedUnix int64                 `json:"generated_unix"`
	GoVersion     string                `json:"go_version"`
	GoMaxProcs    int                   `json:"gomaxprocs"`
	Micro         map[string]MicroBench `json:"microbench"`
	Figures       []FigureWall          `json:"figures"`
	Parallel      ParallelTrials        `json:"parallel_trials"`
	Scenarios     []ScenarioWall        `json:"scenario_runner"`
	GroupsCurve   []GroupsPoint         `json:"groups_curve,omitempty"`
	Compaction    *CompactionCurve      `json:"compaction_curve,omitempty"`
}

func parseGroupsList(csv string) []int {
	var out []int
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		g, err := strconv.Atoi(tok)
		if err != nil || g < 1 {
			fmt.Fprintf(os.Stderr, "bench: -groups entry %q is not a positive integer\n", tok)
			os.Exit(1)
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "bench: -groups is empty")
		os.Exit(1)
	}
	return out
}

// groupsRun is one raw execution of the curve workload.
type groupsRun struct {
	offered   int
	completed int
	virtual   time.Duration
	wall      time.Duration
	fired     uint64
	logical   uint64
	wire      uint64
}

// runGroupsRamp drives a fixed open-loop ramp over a G-group deployment:
// the aggregate offered rate grows with G (300 req/s per group) up to a
// cap, so small points measure scaling and large points measure the
// simulator under heavy fan-out. Seeds and ramp are fixed — the only
// variable across a curve is G.
func runGroupsRamp(groups int) groupsRun {
	aggRPS := 300 * groups
	if aggRPS > 8000 {
		aggRPS = 8000
	}
	ramp := workload.Ramp{StartRPS: aggRPS, StepRPS: 0, StepDuration: 2 * time.Second, Steps: 3}
	s := shard.New(shard.Options{
		Groups: groups, NodesPerGroup: 3, Seed: 77,
		Variant: cluster.VariantRaft(), Profile: stable100(),
	})
	lg := shard.NewLoadGen(s, ramp, shard.LoadOptions{Keys: 4096})
	s.Start()
	if !s.WaitLeaders(30 * time.Second) {
		fmt.Fprintf(os.Stderr, "bench: groups-curve G=%d never elected all leaders\n", groups)
		os.Exit(1)
	}
	s.Run(time.Second)
	// Wall time covers the loaded window only: boot (G elections) and the
	// pre-load settle second measure deployment spin-up, not sustained
	// throughput, and at small ramps they would drown the signal.
	start := time.Now()
	f0 := s.Engine().Fired()
	lg.Start()
	s.Run(ramp.Duration() + 3*time.Second)
	r := groupsRun{
		offered:   aggRPS,
		completed: lg.TotalCompleted(),
		virtual:   ramp.Duration(),
		wall:      time.Since(start),
		fired:     s.Engine().Fired() - f0,
	}
	r.logical, r.wire = s.WireStats()
	return r
}

// groupsReps is how many times each curve point runs; the minimum wall
// time is kept. Virtual-time results are identical across reps (the
// simulation is deterministic) — only the wall clock is noisy, and min
// is its least-noise estimator.
const groupsReps = 3

// runGroupsBest runs one curve point groupsReps times and keeps the rep
// with the lowest wall time.
func runGroupsBest(groups int) groupsRun {
	best := runGroupsRamp(groups)
	for i := 1; i < groupsReps; i++ {
		if r := runGroupsRamp(groups); r.wall < best.wall {
			best = r
		}
	}
	return best
}

// runGroupsPoint runs one curve point.
func runGroupsPoint(groups int) GroupsPoint {
	r := runGroupsBest(groups)
	pt := GroupsPoint{
		Groups:       groups,
		OfferedRPS:   r.offered,
		Completed:    r.completed,
		AggOpsPerSec: float64(r.completed) / r.virtual.Seconds(),
		WallMs:       float64(r.wall) / float64(time.Millisecond),
		LogicalMsgs:  r.logical,
		WireMsgs:     r.wire,
	}
	if r.wall > 0 {
		pt.OpsPerWallSec = float64(r.completed) / r.wall.Seconds()
		pt.EventsPerWallSec = float64(r.fired) / r.wall.Seconds()
	}
	if r.wire > 0 {
		pt.MsgReduction = float64(r.logical) / float64(r.wire)
	}
	return pt
}

func toMicro(r testing.BenchmarkResult) MicroBench {
	ns := float64(r.NsPerOp())
	eps := 0.0
	if ns > 0 {
		eps = 1e9 / ns
	}
	return MicroBench{NsPerOp: ns, EventsPerSec: eps, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// bench runs the hot-path microbenchmarks, times quick versions of the
// figures, exercises the parallel trial runner, and (with -json) writes
// the whole report as BENCH.json.
func bench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonPath := fs.String("json", "", "write the report as JSON to this path (e.g. BENCH.json)")
	trials := fs.Int("trials", 150, "election trials for the parallel-runner timing")
	groupsCurve := fs.Bool("groups-curve", false, "run the multi-Raft groups-scaling curve")
	compactionCurve := fs.Bool("compaction-curve", false, "run the log-compaction growth curve and the snapshot-shipped migration cost")
	groupsList := fs.String("groups", "1,2,4,8,16,32,64,128,256", "comma-separated group counts for -groups-curve")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	rep := BenchReport{
		Schema:        "dynatune-bench/v1",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Micro:         map[string]MicroBench{},
	}

	fmt.Println("== Hot-path microbenchmarks (allocation-free sim core) ==")
	rep.Micro["engine_schedule_fire"] = toMicro(testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Schedule(e.Now()+time.Microsecond, fn)
			e.Step()
		}
	}))
	rep.Micro["engine_timer_churn"] = toMicro(testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		fn := func() {}
		var h sim.Handle
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Cancel(h)
			h = e.Schedule(e.Now()+time.Millisecond, fn)
			if i%64 == 0 {
				e.Step()
			}
		}
	}))
	rep.Micro["engine_deep_queue"] = toMicro(testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		fn := func() {}
		for i := 0; i < 4096; i++ { // steady 4k-event backlog
			e.Schedule(e.Now()+time.Duration(i)*time.Microsecond, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(e.Now()+4096*time.Microsecond, fn)
			e.Step()
		}
	}))
	rep.Micro["netsim_udp_send_deliver"] = toMicro(testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine(1)
		nw := netsim.New(eng, 2, netsim.Constant(netsim.Params{RTT: time.Millisecond, Jitter: 100 * time.Microsecond}),
			func(to, msg int) {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nw.Send(0, 1, netsim.UDP, i)
			eng.Run(eng.Now() + 2*time.Millisecond)
		}
	}))
	rep.Micro["netsim_tcp_send_deliver"] = toMicro(testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine(1)
		nw := netsim.New(eng, 2, netsim.Constant(netsim.Params{RTT: time.Millisecond, Loss: 0.05}),
			func(to, msg int) {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nw.Send(0, 1, netsim.TCP, i)
			eng.Run(eng.Now() + 2*time.Millisecond)
		}
	}))
	for _, k := range []string{"engine_schedule_fire", "engine_timer_churn", "engine_deep_queue", "netsim_udp_send_deliver", "netsim_tcp_send_deliver"} {
		m := rep.Micro[k]
		fmt.Printf("  %-24s %8.1f ns/op  %12.0f events/s  %3d allocs/op  %4d B/op\n",
			k, m.NsPerOp, m.EventsPerSec, m.AllocsPerOp, m.BytesPerOp)
	}

	fmt.Println("== Per-figure wall time (scaled-down experiments) ==")
	timeFig := func(name string, fn func()) {
		start := time.Now()
		fn()
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		rep.Figures = append(rep.Figures, FigureWall{Name: name, WallMs: ms})
		fmt.Printf("  %-16s %8.0f ms\n", name, ms)
	}
	timeFig("fig4-elections", func() {
		for _, v := range []cluster.Variant{cluster.VariantRaft(), cluster.VariantDynatune(dynatune.Options{})} {
			cluster.RunElectionTrials(cluster.Options{N: 5, Seed: 42, Variant: v, Profile: stable100()}, 60, 4*time.Second)
		}
	})
	timeFig("fig5-ramp", func() {
		ramp := workload.Ramp{StartRPS: 4000, StepRPS: 4000, StepDuration: 2 * time.Second, Steps: 4}
		cluster.RunThroughputRamp(cluster.Options{N: 5, Seed: 21, Variant: cluster.VariantRaft(), Profile: stable100()}, ramp, 2)
	})
	timeFig("xfer-handover", func() {
		cluster.RunTransferTrials(cluster.Options{N: 5, Seed: 61, Variant: cluster.VariantRaft(), Profile: stable100()}, 30, time.Second)
	})
	timeFig("sharded-ramp", func() {
		ramp := workload.Ramp{StartRPS: 2000, StepRPS: 0, StepDuration: time.Second, Steps: 3}
		shard.RunRamp(shard.Options{Groups: 4, NodesPerGroup: 3, Seed: 23, Variant: cluster.VariantRaft(),
			Profile: stable100()}, ramp, shard.LoadOptions{Keys: 1024})
	})

	fmt.Println("== Scenario engine wall time (registry → bind → sharded execution) ==")
	for _, sc := range []struct {
		name  string
		scale float64
	}{
		{"asym-partition-abdication", 0.15},
		{"cascading-leader-failures", 1},
		{"loss-pulse-degrade", 1},
	} {
		start := time.Now()
		if _, err := bind.RunNamed(sc.name, sc.scale); err != nil {
			fmt.Fprintf(os.Stderr, "bench: scenario %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		rep.Scenarios = append(rep.Scenarios, ScenarioWall{Name: sc.name, Scale: sc.scale, WallMs: ms})
		fmt.Printf("  %-28s (x%.2f) %8.0f ms\n", sc.name, sc.scale, ms)
	}

	if *groupsCurve {
		fmt.Println("== Multi-Raft groups-scaling curve ==")
		for _, g := range parseGroupsList(*groupsList) {
			pt := runGroupsPoint(g)
			rep.GroupsCurve = append(rep.GroupsCurve, pt)
			fmt.Printf("  G=%-4d %7d ops (%6.0f ops/vs) wall %7.0f ms  %11.0f ev/s  msgs %9d→%8d (%4.1fx)\n",
				pt.Groups, pt.Completed, pt.AggOpsPerSec, pt.WallMs, pt.EventsPerWallSec,
				pt.LogicalMsgs, pt.WireMsgs, pt.MsgReduction)
		}
	}

	if *compactionCurve {
		fmt.Println("== Compaction curve (bounded logs + snapshot-shipped migration) ==")
		rep.Compaction = runCompactionCurve()
	}

	fmt.Println("== Parallel trial runner (workers vs 1, identical results required) ==")
	opts := cluster.Options{N: 5, Seed: 42, Variant: cluster.VariantRaft(), Profile: stable100()}
	fingerprint := func(r cluster.ElectionResult) string {
		det, ots := r.Summary()
		return fmt.Sprintf("%d/%d/%v/%v/%v", len(r.DetectionMs), r.FailedTrials, det, ots, r.MeanRandTimeoutMs)
	}
	prevWorkers, hadWorkers := os.LookupEnv("DYNATUNE_TRIAL_WORKERS")
	os.Setenv("DYNATUNE_TRIAL_WORKERS", "1")
	start := time.Now()
	seq := cluster.RunElectionTrials(opts, *trials, 4*time.Second)
	seqMs := float64(time.Since(start)) / float64(time.Millisecond)
	if hadWorkers {
		os.Setenv("DYNATUNE_TRIAL_WORKERS", prevWorkers)
	} else {
		os.Unsetenv("DYNATUNE_TRIAL_WORKERS")
	}
	workers := cluster.TrialWorkers()
	start = time.Now()
	par := cluster.RunElectionTrials(opts, *trials, 4*time.Second)
	parMs := float64(time.Since(start)) / float64(time.Millisecond)
	rep.Parallel = ParallelTrials{
		Trials: *trials, Workers: workers,
		SequentialMs: seqMs, ParallelMs: parMs,
		Speedup:   seqMs / parMs,
		Identical: fingerprint(seq) == fingerprint(par),
	}
	fmt.Printf("  %d trials: 1 worker %.0f ms, %d workers %.0f ms (%.2fx), identical=%v\n",
		*trials, seqMs, workers, parMs, rep.Parallel.Speedup, rep.Parallel.Identical)
	if !rep.Parallel.Identical {
		fmt.Fprintln(os.Stderr, "bench: parallel trial runner diverged from sequential results")
		os.Exit(1)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: marshal: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
