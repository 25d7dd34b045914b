package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dynatune/internal/cluster"
	"dynatune/internal/loadharness"
	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/shard"
	"dynatune/internal/workload"
)

// LoadSection is the BENCH.json `load` entry: the real-socket serving
// numbers next to the simulator's prediction for the same deployment
// shape — the testbed↔production loop the ROADMAP asks for.
type LoadSection struct {
	Groups        int                       `json:"groups"`
	NodesPerGroup int                       `json:"nodes_per_group"`
	Conns         int                       `json:"conns"`
	Rate          float64                   `json:"target_rate"`
	Stages        []loadharness.StageResult `json:"stages"`
	Peak          loadharness.StageResult   `json:"peak"`
	SimP99Ms      float64                   `json:"sim_p99_ms,omitempty"`
	MeasuredP99Ms float64                   `json:"measured_p99_ms"`
	ProposeAmp    float64                   `json:"propose_amp,omitempty"` // raft entries per client put over the whole run
}

// loadCmd drives the open-loop loopback harness against a real fleet:
// boot G sharded groups in-process (the same server.Start path
// cmd/dynatuned runs), ramp pipelined binary connections against the
// sharded Front, and report the closed-SLA profile beside the
// simulator's p99 prediction for the same shape.
func loadCmd(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	var (
		conns      = fs.Int("conns", 100000, "peak concurrent connections")
		startConns = fs.Int("start-conns", 10000, "ramp start connections")
		stages     = fs.Int("stages", 4, "ramp stages")
		stageDur   = fs.Duration("stage-dur", 5*time.Second, "measured window per stage")
		rate       = fs.Float64("rate", 5000, "total open-loop arrival rate at peak (req/s)")
		writeFrac  = fs.Float64("write-frac", 0.1, "fraction of puts")
		keys       = fs.Int("keys", 4096, "keyspace size")
		valueB     = fs.Int("value", 128, "value bytes")
		sla        = fs.Duration("sla", 100*time.Millisecond, "latency SLA")
		groups     = fs.Int("groups", 4, "raft groups (in-process fleet)")
		nodes      = fs.Int("nodes", 3, "nodes per group (in-process fleet)")
		front      = fs.String("front", "", "external binary Front address (skips booting a fleet)")
		fleetET    = fs.Duration("fleet-et", time.Second, "fleet static election timeout (heartbeat = 1/10; raise on starved CPUs so scheduling delay does not trigger elections)")
		sim        = fs.Bool("sim", true, "run the simulator prediction for the same shape")
		jsonPath   = fs.String("json", "", "merge a `load` section into this BENCH.json")
		pprofPath  = fs.String("pprof", "", "write a CPU profile covering the peak stage to this path")
		pinCores   = fs.Bool("pin-cores", true, "pin sharded load workers to distinct CPUs (skipped on a single-core host)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	sec := LoadSection{Groups: *groups, NodesPerGroup: *nodes, Conns: *conns, Rate: *rate}

	binAddr := *front
	var fleetBins [][]string
	var fleet *loadharness.Fleet
	if binAddr == "" {
		fmt.Printf("booting %d×%d loopback fleet...\n", *groups, *nodes)
		var err error
		fleet, err = loadharness.StartFleet(loadharness.FleetConfig{
			Groups: *groups, NodesPerGroup: *nodes,
			Tuner: func() raft.Tuner { return raft.NewStaticTuner(*fleetET, *fleetET/10) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			os.Exit(1)
		}
		defer fleet.Stop()
		binAddr, fleetBins = fleet.BinAddr, fleet.NodeBins
		fmt.Printf("fleet up: binary front %s\n", binAddr)
	}

	// When Conns outruns this process's fd budget the harness re-execs
	// this binary into `load-worker` shards (fd limits are per-process).
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		os.Exit(1)
	}

	res, err := loadharness.Run(loadharness.Options{
		Addr:          binAddr,
		FleetBins:     fleetBins,
		WorkerCmd:     []string{exe, "load-worker"},
		Conns:         *conns,
		StartConns:    *startConns,
		Stages:        *stages,
		StageDuration: *stageDur,
		Rate:          *rate,
		WriteFrac:     *writeFrac,
		Keys:          *keys,
		ValueBytes:    *valueB,
		SLA:           *sla,
		Preload:       true,
		PinCores:      *pinCores,
		CPUProfile:    *pprofPath,
		Progress:      func(line string) { fmt.Println("  " + line) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "load: %v\n", err)
		os.Exit(1)
	}
	sec.Stages, sec.Peak, sec.MeasuredP99Ms = res.Stages, res.Peak, res.Peak.P99Ms
	if res.Peak.Errors > 0 {
		fmt.Fprintf(os.Stderr, "load: peak stage had %d errored requests\n", res.Peak.Errors)
	}
	if *pprofPath != "" {
		fmt.Printf("cpu profile (peak stage) written to %s\n", *pprofPath)
	}
	if fleet != nil {
		st := fleet.BatchStats()
		sec.ProposeAmp = st.ProposeAmp()
		if st.ClientOps > 0 {
			fmt.Printf("group commit: %d puts in %d entries (amp %.3f, mean batch %.1f, max %d)\n",
				st.ClientOps, st.Entries, st.ProposeAmp(), st.MeanDepth(), st.MaxDepth)
		}
	}

	if *sim {
		fmt.Println("running simulator prediction (same groups, loopback profile)...")
		sec.SimP99Ms = simPredictP99(*groups, *nodes, res.Peak.AchievedRate, *keys)
	}

	fmt.Println("\nsim-predicted vs measured p99 (peak stage):")
	fmt.Printf("  %-12s %10s %10s %10s %10s\n", "", "rate/s", "p99 ms", "p999 ms", "sla frac")
	if *sim {
		fmt.Printf("  %-12s %10.0f %10.2f %10s %10s\n", "simulated", res.Peak.AchievedRate, sec.SimP99Ms, "-", "-")
	}
	fmt.Printf("  %-12s %10.0f %10.2f %10.2f %10.4f\n", "measured",
		res.Peak.AchievedRate, res.Peak.P99Ms, res.Peak.P999Ms, res.Peak.SLAFrac)

	if *jsonPath != "" {
		if err := mergeSection(*jsonPath, "load", sec); err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("merged load section into %s\n", *jsonPath)
	}
}

// simPredictP99 runs the simulator's sharded open-loop ramp at the
// measured rate over a loopback-like profile and returns its p99 — the
// prediction the measured table is judged against.
func simPredictP99(groups, nodes int, rate float64, keys int) float64 {
	rps := int(rate)
	if rps < 100 {
		rps = 100
	}
	r := shard.RunRamp(
		shard.Options{
			Groups: groups, NodesPerGroup: nodes, Seed: 42,
			Variant: cluster.VariantRaft(),
			Profile: netsim.Constant(netsim.Params{RTT: time.Millisecond, Jitter: 200 * time.Microsecond}),
		},
		workload.Ramp{StartRPS: rps, StepRPS: 0, StepDuration: 2 * time.Second, Steps: 3},
		shard.LoadOptions{Keys: keys, ClientRTT: time.Millisecond},
	)
	return r.P99Ms
}

// mergeSection read-modify-writes path as a generic JSON object so the
// `load` entry composes with whatever `dynabench bench` wrote.
func mergeSection(path, key string, sec any) error {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	if _, ok := doc["schema"]; !ok {
		doc["schema"], _ = json.Marshal("dynatune-bench/v1")
	}
	raw, err := json.Marshal(sec)
	if err != nil {
		return err
	}
	doc[key] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
