package loadharness

import (
	"fmt"
	"runtime"
	"time"
)

// Group-commit validation: the same closed-loop put-heavy drive, run
// twice over identical fleets — once with server-side proposal batching
// on, once per-request — at matched connection count and pipeline
// depth. Closed-loop (every slot waits for its reply before reissuing)
// makes ops/s a direct capacity read, which is the honest way to score
// a CPU-work optimization; the open-loop ramp stays the tool for
// latency-under-offered-load questions.

// GroupCommitOptions configure the batched-vs-per-request shoot-out.
type GroupCommitOptions struct {
	// Groups / NodesPerGroup size the fleet (defaults 1 / 3 — group
	// commit is a per-leader effect, one group keeps the contrast clean).
	Groups        int
	NodesPerGroup int
	// Conns is the binary connection count per mode (default 1024).
	Conns int
	// Depth is the pipeline depth per connection (default 4).
	Depth int
	// Duration is each mode's measured window (default 5s).
	Duration time.Duration
	// Keys is the keyspace (default 4096).
	Keys int
	// WriteFrac defaults to 1.0: group commit batches the propose path,
	// so an all-put drive measures exactly the optimized work.
	WriteFrac float64
	// BatchWindow for the batched mode (default batcher.DefaultWindow via
	// server.Config).
	BatchWindow time.Duration
	// Procs lists GOMAXPROCS settings to sweep (default {1} on a
	// single-core host, {1, NumCPU} otherwise — the multi-core column
	// only exists when the cores do).
	Procs []int
	// Progress receives one line per completed row.
	Progress func(string)
}

// GroupCommitRow is one (mode, GOMAXPROCS) measurement.
type GroupCommitRow struct {
	Mode        string    `json:"mode"` // "batched" | "per_request"
	Procs       int       `json:"gomaxprocs"`
	Conns       int       `json:"conns"`
	Depth       int       `json:"depth"`
	OpsPerSec   float64   `json:"ops_per_sec"`
	P99Ms       float64   `json:"p99_ms"`
	ClientPuts  uint64    `json:"client_puts"` // commands through the propose path
	Entries     uint64    `json:"entries"`     // raft entries proposed for them
	ProposeAmp  float64   `json:"propose_amp"` // Entries / ClientPuts
	MeanBatch   float64   `json:"mean_batch_depth"`
	MaxBatch    int       `json:"max_batch_depth"`
	FlushWindow uint64    `json:"flush_window"`
	FlushOps    uint64    `json:"flush_ops"`
	FlushBytes  uint64    `json:"flush_bytes"`
	CoreUtil    []float64 `json:"core_util,omitempty"`
}

// GroupCommitResult is the full sweep plus the headline ratio.
type GroupCommitResult struct {
	Rows []GroupCommitRow `json:"rows"`
	// Speedup is batched ops/s over per-request ops/s at the highest
	// GOMAXPROCS swept.
	Speedup float64 `json:"speedup"`
}

func (o *GroupCommitOptions) defaults() {
	if o.Groups <= 0 {
		o.Groups = 1
	}
	if o.NodesPerGroup <= 0 {
		o.NodesPerGroup = 3
	}
	if o.Conns <= 0 {
		o.Conns = 1024
	}
	if o.Depth <= 0 {
		o.Depth = 4
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Keys <= 0 {
		o.Keys = 4096
	}
	if o.WriteFrac == 0 {
		o.WriteFrac = 1.0
	}
	if len(o.Procs) == 0 {
		o.Procs = []int{1}
		if n := runtime.NumCPU(); n > 1 {
			o.Procs = append(o.Procs, n)
		}
	}
}

// RunGroupCommitCompare measures batched vs per-request throughput at
// matched load for every requested GOMAXPROCS.
func RunGroupCommitCompare(o GroupCommitOptions) (*GroupCommitResult, error) {
	o.defaults()
	if _, err := RaiseFDLimit(uint64(o.Conns)*4 + fdSlack); err != nil {
		return nil, err
	}
	res := &GroupCommitResult{}
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	var perReqAtMax, batchedAtMax float64
	for _, procs := range o.Procs {
		runtime.GOMAXPROCS(procs)
		for _, mode := range []string{"per_request", "batched"} {
			window := time.Duration(0)
			if mode == "batched" {
				window = o.BatchWindow
				if window == 0 {
					window = 200 * time.Microsecond
				}
			}
			row, err := runGroupCommitMode(o, mode, procs, window)
			if err != nil {
				return nil, fmt.Errorf("loadharness: group commit %s @%d procs: %w", mode, procs, err)
			}
			res.Rows = append(res.Rows, *row)
			if procs == o.Procs[len(o.Procs)-1] {
				if mode == "batched" {
					batchedAtMax = row.OpsPerSec
				} else {
					perReqAtMax = row.OpsPerSec
				}
			}
			if o.Progress != nil {
				o.Progress(fmt.Sprintf("group-commit %s procs=%d: %.0f ops/s p99=%.2fms amp=%.3f mean-batch=%.1f",
					mode, procs, row.OpsPerSec, row.P99Ms, row.ProposeAmp, row.MeanBatch))
			}
		}
	}
	if perReqAtMax > 0 {
		res.Speedup = batchedAtMax / perReqAtMax
	}
	return res, nil
}

// runGroupCommitMode boots a fresh fleet, drives it closed-loop, and
// reads the propose-amplification counters off the servers themselves.
func runGroupCommitMode(o GroupCommitOptions, mode string, procs int, window time.Duration) (*GroupCommitRow, error) {
	f, err := StartFleet(FleetConfig{
		Groups:        o.Groups,
		NodesPerGroup: o.NodesPerGroup,
		BatchWindow:   window,
	})
	if err != nil {
		return nil, err
	}
	defer f.Stop()

	co := closedOptions{
		BinAddr:   f.BinAddr,
		Conns:     o.Conns,
		Duration:  o.Duration,
		Depth:     o.Depth,
		Keys:      o.Keys,
		WriteFrac: o.WriteFrac,
	}
	if o.WriteFrac < 1 {
		if err := preload(Options{Addr: f.BinAddr, Keys: o.Keys, ValueBytes: 8}); err != nil {
			return nil, err
		}
	}
	base := f.BatchStats()
	before := sampleCPU()
	ops, p99, err := runBinClosed(co)
	util := cpuUtil(before, sampleCPU())
	if err != nil {
		return nil, err
	}
	st := f.BatchStats()
	row := &GroupCommitRow{
		Mode: mode, Procs: procs, Conns: o.Conns, Depth: o.Depth,
		OpsPerSec:   ops,
		P99Ms:       p99,
		ClientPuts:  st.ClientOps - base.ClientOps,
		Entries:     st.Entries - base.Entries,
		MaxBatch:    st.MaxDepth,
		FlushWindow: st.FlushWindow - base.FlushWindow,
		FlushOps:    st.FlushOps - base.FlushOps,
		FlushBytes:  st.FlushBytes - base.FlushBytes,
		CoreUtil:    util,
	}
	if row.ClientPuts > 0 {
		row.ProposeAmp = float64(row.Entries) / float64(row.ClientPuts)
	}
	if batches := st.Batches - base.Batches; batches > 0 {
		row.MeanBatch = float64(st.Ops-base.Ops) / float64(batches)
	}
	return row, nil
}
