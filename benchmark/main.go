// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics gated by per-metric regression bounds
// (BENCHMARK.json), a correctness check in the same command, and a
// separate traced run that produces per-layer metrics from outside the
// program. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynatune/internal/metrics"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

// metricDef is one BENCHMARK.json metric entry; manifest_test.go holds the
// file to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the service sees. Every workload reports
// every one of them; README.md says what each means on failover_sim.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.10},
	{"lat_p50_ms", "ms", "lower", 0.10},
	{"lat_p90_ms", "ms", "lower", 0.15},
	{"sla_frac", "frac", "higher", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is informational: never gated, read to find where an
// end-to-end change came from. layer.name, layer = module.
var perLayer = []metricDef{
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.max_rate_ok", Unit: "1/s", Better: "higher"},
	{Name: "client.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.cpu_s_per_kop", Unit: "s", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "wireclient.encode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "wireclient.decode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "wireclient.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wireclient.node_put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.front_put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.front_hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.front_get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.node_get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.propose_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.propose_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.single_node_put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.term_changes", Unit: "count", Better: "lower"},
	{Name: "server.failover_ots_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.failover_detect_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batcher.propose_amp", Unit: "frac", Better: "lower"},
	{Name: "batcher.mean_depth", Unit: "count", Better: "higher"},
	{Name: "batcher.flush_window_frac", Unit: "frac", Better: "lower"},
	{Name: "batcher.wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "batcher.add_ns_op", Unit: "ns", Better: "lower"},
	{Name: "raft.commit_ns_entry", Unit: "ns", Better: "lower"},
	{Name: "raft.msgs_per_entry", Unit: "count", Better: "lower"},
	{Name: "raft.step_app_ns", Unit: "ns", Better: "lower"},
	{Name: "raft.apply_lag_p99", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ns_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.one_way_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.bytes_per_msg", Unit: "count", Better: "lower"},
	{Name: "kv.apply_ns_op", Unit: "ns", Better: "lower"},
	{Name: "kv.batch_encode_ns_op", Unit: "ns", Better: "lower"},
	{Name: "kv.get_ns_op", Unit: "ns", Better: "lower"},
	{Name: "storage.append_sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.append_nosync_ns_op", Unit: "ns", Better: "lower"},
	{Name: "storage.bytes_per_entry", Unit: "count", Better: "lower"},
	{Name: "storage.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.durable_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dynatune.observe_ns_op", Unit: "ns", Better: "lower"},
	{Name: "dynatune.et_ms", Unit: "ms", Better: "lower"},
	{Name: "dynatune.h_ms", Unit: "ms", Better: "lower"},
	{Name: "dynatune.detect_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "dynatune.detect_cut_frac", Unit: "frac", Better: "higher"},
	{Name: "dynatune.ots_cut_frac", Unit: "frac", Better: "higher"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsim.deliver_ns_op", Unit: "ns", Better: "lower"},
	{Name: "scenario.split_rounds_per_trial", Unit: "count", Better: "lower"},
	{Name: "scenario.rand_timeout_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.route_ns_op", Unit: "ns", Better: "lower"},
}

// workloadDef is one BENCHMARK.json workload entry.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"put_closed", "closed loop 2 conns x 64 all-put: batcher, raft, wire, transport and kv apply do most of the work, so write-path gains show here"},
	{"mixed_open", "open loop 20k req/s 90% lease-read get: independent users below saturation; reads bypass batcher, log and replication"},
	{"put_serial", "closed loop 2 conns x 1: CPU idle, latency is the stack of coalesce/batch windows, timers and one replication round"},
	{"failover_sim", "paper Fig. 4 leader-pause failovers on the deterministic simulator: sim, netsim, raft, dynatune do all the work, the real path none"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from values; a definition without
// a value is a bug in the benchmark, not a measurement.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("no value measured for metric %s", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	scratch  string
}

func printHeader(w io.Writer, o options, shape, injected string) {
	fmt.Fprintf(w, "benchmark workload=%s seed=%d measured=%v trace=%v commit=%s\n", o.workload, o.seed, o.window, o.trace, commit)
	fmt.Fprintf(w, "  host: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "  load: %s\n", shape)
	fmt.Fprintf(w, "  delay: %s\n", injected)
}

const realInjected = "no delay injected on loopback: real-path latency is processor time plus the program's own windows and timers; the fleet is in-memory (non-durable)"

func shapeOf(workload string) (shape, injected string) {
	if spec, ok := realSpecs[workload]; ok {
		return fmt.Sprintf("%s; %d B values, %d keys; 1 group x 3 nodes behind the binary Front, static tuner Et %v / h %v, batch window %v; warm-up %v, %d set-ups",
			spec.shape(), valueBytes, keyCount, staticEt, staticH, batchWindow, warmUp, setupRepeats), realInjected
	}
	return fmt.Sprintf("registry specs paper-elections / paper-elections-raft, N=5, leader pause, settle 4s, %d trials per variant per round, 1 worker; %d set-ups", simTrials, setupRepeats), simInjected
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(o options, w io.Writer) (*result, error) {
	values := map[string]float64{}
	res := &result{}
	if spec, ok := realSpecs[o.workload]; ok {
		run, err := runReal(spec, o.seed, o.window)
		if err != nil {
			return nil, err
		}
		load := run.load
		lat := summarize(load.okLats)
		values["setup_s"] = median(run.setupS)
		values["ops_per_s"], values["lat_p50_ms"], values["lat_p90_ms"] = load.steady()
		values["sla_frac"] = slaFrac(load.okLats, load.attempted, slaMs)
		res.Attempted, res.Failed, res.Correct = load.attempted, load.failed, run.checkErr == nil
		fmt.Fprintf(w, "  samples: %d attempted, %d failed, %d latency samples; sla limit %.0f ms\n", load.attempted, load.failed, lat.n, slaMs)
		fmt.Fprintf(w, "  whole window (informational): %.4f ops/s, p50 %.4f ms, p90 %.4f ms; the gated three are medians over one-second slices\n", load.opsPerS(), lat.p50, lat.p90)
		fmt.Fprintf(w, "  tails (informational): p99 %.4f ms, p999 %.4f ms (0 = fewer than %d samples beyond it); generator lateness p99 %.4f ms\n",
			lat.p99, lat.p999, minBeyond, quantileOrZero(metrics.SortedCopy(load.lateMs), 0.99))
		fmt.Fprintf(w, "  set-ups: %.4f s each; server.term_changes over the window: %d (expected 0)\n", run.setupS, run.termChanges)
		if run.checkErr != nil {
			fmt.Fprintf(w, "  CORRECTNESS FAILED: %v\n", run.checkErr)
		} else {
			fmt.Fprintf(w, "  correct: all %d keys read back through the Front as their last acknowledged value; 3 replica stores equal\n", keyCount)
		}
	} else {
		run, err := runSim(o.seed, o.window)
		if err != nil {
			return nil, err
		}
		p := &run.pooled
		values["setup_s"] = median(run.setupS)
		values["ops_per_s"] = run.opsPerS()
		// Out-of-service time is bimodal (about half the trials re-elect in
		// ~300 ms, the rest wait out the 1 s fallback), so its median sits on
		// the cliff between the modes and flips from seed to seed. The
		// median reported here is therefore detection time, the tail OTS.
		values["lat_p50_ms"] = quantileOrZero(p.detMs, 0.5)
		values["lat_p90_ms"] = quantileOrZero(p.otsMs, 0.9)
		values["sla_frac"] = slaFrac(p.otsMs, p.trials, simSlaMs)
		res.Attempted, res.Failed = run.trials, p.failedTrials+p.raftFailed
		res.Correct = res.Failed == 0 && p.orderErr == nil
		fmt.Fprintf(w, "  samples: %d rounds run (%d trials), virtual-time metrics pooled over the first %d rounds = %d Dynatune trials; sla limit %.0f ms out of service\n",
			len(run.roundWall), run.trials, p.rounds, p.trials, simSlaMs)
		fmt.Fprintf(w, "  here lat_p50_ms is Dynatune failure-detection time and lat_p90_ms Dynatune out-of-service time, virtual ms; sla_frac is the share of trials back in service within the limit; ops_per_s is failover trials per wall-second\n")
		fmt.Fprintf(w, "  paper (informational): detect_cut_frac %.4f (paper 0.80), ots_cut_frac %.4f (paper 0.45), OTS mean %.4f ms, split rounds per trial %.4f\n",
			p.detectCut(), p.otsCut(), mean(p.otsMs), float64(p.splitRounds)/float64(p.trials))
		if !res.Correct {
			fmt.Fprintf(w, "  CORRECTNESS FAILED: %d trials without an election; %v\n", res.Failed, p.orderErr)
		} else {
			fmt.Fprintf(w, "  correct: every trial elected a leader, and none detected the failure after service resumed\n")
		}
	}
	var err error
	res.Metrics, err = fill(endToEnd, values)
	return res, err
}

// runTracedCmd produces the per-layer metrics and writes the spans.
func runTracedCmd(o options, w io.Writer) (*result, error) {
	rec := newSpanRec()
	out, err := runTraced(o.workload, o.seed, o.window, o.scratch, rec)
	if err != nil {
		return nil, err
	}
	v := out.values
	for _, n := range out.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  hop breakdown (serial put, ms): front_hop %.4f + node hop %.4f + propose %.4f = %.4f; compare put_serial lat_p50_ms\n",
		v["server.front_hop_p50_ms"], v["wireclient.node_put_p50_ms"]-v["server.propose_p50_ms"], v["server.propose_p50_ms"], v["server.front_put_p50_ms"])
	path := filepath.Join(o.scratch, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := rec.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "  spans: %d written to %s\n", len(rec.spans), path)
	if out.checkErr != nil {
		fmt.Fprintf(w, "  CORRECTNESS FAILED: %v\n", out.checkErr)
	}
	res := &result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed}
	res.Metrics, err = fill(perLayer, v)
	return res, err
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// runOne is one run of the command: header, measurement, metrics. The
// idle keeper (keeper.go) runs whenever a real fleet is measured; the
// untraced simulator run is one spinning thread and needs none.
func runOne(o options, w io.Writer) (*result, error) {
	shape, injected := shapeOf(o.workload)
	printHeader(w, o, shape, injected)
	if _, real := realSpecs[o.workload]; real || o.trace {
		keeper, err := startIdleKeeper()
		if err != nil {
			return nil, err
		}
		defer keeper.stop()
	}
	defs, measure := endToEnd, runUntraced
	if o.trace {
		defs, measure = perLayer, runTracedCmd
	}
	res, err := measure(o, w)
	if err == nil {
		printMetrics(w, defs, res.Metrics)
	}
	return res, err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "put_closed | mixed_open | put_serial | failover_sim")
	fs.Int64Var(&o.seed, "seed", 1, "drives key/op choice and the simulator's spec seeds")
	fs.Float64Var(&seconds, "seconds", 20, "measured window")
	fs.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics); 0: end-to-end metrics")
	fs.StringVar(&o.scratch, "out", ".bench_build", "directory for spans and probe WALs")
	repeat := fs.Bool("check-repeat", false, "run every workload twice and fail if any end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.window, o.trace = time.Duration(seconds*float64(time.Second)), trace != 0
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *repeat {
		return checkRepeat(o, stdout, stderr)
	}
	known := false
	for _, wl := range workloads {
		known = known || wl.Name == o.workload
	}
	if !known || seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %v) and --seconds > 0\n", workloads)
		return 2
	}
	res, err := runOne(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
