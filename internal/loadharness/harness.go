package loadharness

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynatune/internal/metrics"
	"dynatune/internal/wireclient"
)

// Options configure one open-loop run against a binary Front.
type Options struct {
	// Addr is the binary Front address.
	Addr string
	// Conns is the peak concurrent connection count.
	Conns int
	// StartConns begins the ramp (default min(Conns, 10000)).
	StartConns int
	// Stages is the number of ramp steps from StartConns to Conns
	// (default 4; 1 jumps straight to Conns).
	Stages int
	// StageDuration is the measured window per stage (default 5s).
	StageDuration time.Duration
	// Rate is the total target arrival rate (req/s) at peak; stages run
	// at Rate scaled by their connection fraction (default 5000).
	Rate float64
	// WriteFrac is the fraction of puts (default 0.1).
	WriteFrac float64
	// Keys is the keyspace size (default 4096).
	Keys int
	// ValueBytes sizes put values (default 128).
	ValueBytes int
	// SLA is the closed-SLA threshold (default 100ms): each stage reports
	// the fraction of requests answered within it.
	SLA time.Duration
	// DialParallel bounds concurrent dials while ramping (default 512).
	DialParallel int
	// CoalesceWindow tunes per-connection write coalescing (default
	// wireclient.DefaultCoalesceWindow).
	CoalesceWindow time.Duration
	// Preload, when true, writes every key once before measuring so gets
	// hit (default true via Run).
	Preload bool
	// SourceIPs lists local IPs to spread dials across. One source IP
	// exhausts the ~28k-port ephemeral range against a single destination,
	// so 100k+ connections need several; every 127.0.0.x is host-local on
	// Linux without configuration. Empty auto-sizes from Conns.
	SourceIPs []string
	// FleetBins lists each group's member binary addresses (indexed by
	// node ID-1). Worker processes use them to run a private BinFront of
	// their own; empty makes workers dial Addr directly.
	FleetBins [][]string
	// WorkerCmd is the argv that re-execs this program into WorkerMain
	// (e.g. {os.Executable(), "load-worker"}). When the connection count
	// exceeds the per-process descriptor budget the run shards across
	// that many worker processes; empty disables sharding, and an
	// over-budget run fails loudly instead of dialing into the wall.
	WorkerCmd []string
	// WorkerEnv is appended to each worker's environment (tests use it to
	// arm the helper-process trigger).
	WorkerEnv []string
	// MaxFDs overrides the probed descriptor budget (testing; 0 probes
	// the real rlimit).
	MaxFDs uint64
	// PinCores pins each load-worker process to its own CPU (round-robin)
	// when the machine has more than one, so generators stop migrating
	// across the cores the fleet needs. No-op on a single-core host or a
	// non-Linux build.
	PinCores bool
	// CPUProfile, when set, writes a CPU profile of this process covering
	// the peak (final) stage to the given path. In a sharded run the
	// parent hosts the fleet, so the profile captures the serving path.
	CPUProfile string
	// Progress, if set, receives one line per stage.
	Progress func(string)
}

func (o *Options) defaults() error {
	if o.Addr == "" {
		return fmt.Errorf("loadharness: need Addr")
	}
	if o.Conns <= 0 {
		o.Conns = 10000
	}
	if o.StartConns <= 0 {
		o.StartConns = 10000
	}
	if o.StartConns > o.Conns {
		o.StartConns = o.Conns
	}
	if o.Stages <= 0 {
		o.Stages = 4
	}
	if o.StartConns == o.Conns {
		o.Stages = 1
	}
	if o.StageDuration <= 0 {
		o.StageDuration = 5 * time.Second
	}
	if o.Rate <= 0 {
		o.Rate = 5000
	}
	if o.WriteFrac < 0 || o.WriteFrac > 1 {
		return fmt.Errorf("loadharness: WriteFrac %v out of [0,1]", o.WriteFrac)
	}
	if o.Keys <= 0 {
		o.Keys = 4096
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 128
	}
	if o.SLA <= 0 {
		o.SLA = 100 * time.Millisecond
	}
	if o.DialParallel <= 0 {
		o.DialParallel = 512
	}
	if len(o.SourceIPs) == 0 {
		// ~15k conns per source IP leaves headroom inside the default
		// 32768–60999 ephemeral range.
		n := o.Conns/15000 + 1
		if n > 12 {
			n = 12
		}
		for i := 0; i < n; i++ {
			o.SourceIPs = append(o.SourceIPs, fmt.Sprintf("127.0.0.%d", i+1))
		}
	}
	return nil
}

// StageResult is one ramp step's closed-SLA report.
type StageResult struct {
	Conns        int     `json:"conns"`
	TargetRate   float64 `json:"target_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	Issued       uint64  `json:"issued"`
	OK           uint64  `json:"ok"`
	NotFound     uint64  `json:"not_found"`
	Errors       uint64  `json:"errors"`
	MeanMs       float64 `json:"mean_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	SLAMs        float64 `json:"sla_ms"`
	WithinSLA    uint64  `json:"within_sla"`
	SLAFrac      float64 `json:"sla_frac"` // WithinSLA / Issued
	// CoreUtil is each CPU's busy fraction over the measured window
	// (/proc/stat delta; omitted off-Linux).
	CoreUtil []float64 `json:"core_util,omitempty"`
}

// Result is a whole run.
type Result struct {
	Conns  int           `json:"conns"`
	Stages []StageResult `json:"stages"`
	Peak   StageResult   `json:"peak"` // last (full-concurrency) stage
}

// latRec collects latencies with low contention: callbacks hash onto
// shards by connection index.
type latRec struct {
	mu   sync.Mutex
	lats []float64 // milliseconds
}

const latShards = 16

// fdSlack covers everything beyond the 2-fds-per-loopback-conn cost:
// listeners, raft sockets, backend pools, epoll, stdio.
const fdSlack = 4096

// Run executes the staged open-loop ramp. Latency for each request is
// measured from its *scheduled* arrival instant, not from when the
// generator got around to sending it — the open-loop discipline that
// keeps queueing delay visible.
//
// When the requested connection count exceeds what one process's
// RLIMIT_NOFILE can hold (each loopback conn costs TWO descriptors when
// both ends share a process), the run shards across WorkerCmd
// subprocesses — fd limits are per-process — and fails loudly if no
// WorkerCmd was provided rather than dialing into the wall.
func Run(o Options) (*Result, error) {
	if err := o.defaults(); err != nil {
		return nil, err
	}
	need := uint64(o.Conns)*2 + fdSlack
	limit := o.MaxFDs
	if limit == 0 {
		var err error
		limit, err = RaiseFDLimit(need)
		if err != nil {
			return nil, fmt.Errorf("loadharness: fd limit: %w (need ~%d)", err, need)
		}
	}
	if o.Preload {
		if err := preload(o); err != nil {
			return nil, err
		}
	}
	if limit < need {
		if len(o.WorkerCmd) > 0 {
			return runSharded(o, limit)
		}
		return nil, fmt.Errorf("loadharness: %d connections need ~%d fds but the hard limit allows %d; set WorkerCmd to shard across processes",
			o.Conns, need, limit)
	}

	var conns []*wireclient.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	res := &Result{Conns: o.Conns}
	for stage := 0; stage < o.Stages; stage++ {
		want := stageConns(o, stage)
		var err error
		conns, err = growConns(conns, want, o)
		if err != nil {
			return nil, err
		}
		rate := o.Rate * float64(want) / float64(o.Conns)
		stopProf, err := profileStage(o, stage)
		if err != nil {
			return nil, err
		}
		before := sampleCPU()
		sr, lats := runStage(conns, rate, o)
		sr.CoreUtil = cpuUtil(before, sampleCPU())
		stopProf()
		finalizeStage(&sr, lats, o.StageDuration)
		res.Stages = append(res.Stages, sr)
		progressStage(o, stage, sr)
	}
	res.Peak = res.Stages[len(res.Stages)-1]
	return res, nil
}

// profileStage starts the requested CPU profile when stage is the peak
// (final) one; the returned func stops and flushes it.
func profileStage(o Options, stage int) (func(), error) {
	if o.CPUProfile == "" || stage != o.Stages-1 {
		return func() {}, nil
	}
	f, err := os.Create(o.CPUProfile)
	if err != nil {
		return nil, fmt.Errorf("loadharness: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("loadharness: cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// stageConns is the ramp schedule: linear StartConns→Conns over Stages.
func stageConns(o Options, stage int) int {
	if o.Stages <= 1 {
		return o.Conns
	}
	return o.StartConns + (o.Conns-o.StartConns)*stage/(o.Stages-1)
}

func progressStage(o Options, stage int, sr StageResult) {
	if o.Progress == nil {
		return
	}
	o.Progress(fmt.Sprintf("stage %d/%d: conns=%d rate=%.0f/s p50=%.2fms p99=%.2fms p999=%.2fms sla=%.4f err=%d",
		stage+1, o.Stages, sr.Conns, sr.AchievedRate, sr.P50Ms, sr.P99Ms, sr.P999Ms, sr.SLAFrac, sr.Errors))
}

// growConns dials until len == want, with bounded parallelism.
func growConns(conns []*wireclient.Conn, want int, o Options) ([]*wireclient.Conn, error) {
	need := want - len(conns)
	if need <= 0 {
		return conns, nil
	}
	// Per-conn buffers stay small at harness scale: 100k connections at
	// 64 KiB of bufio each would be 6 GB before the first request.
	cfg := wireclient.ConnConfig{CoalesceWindow: o.CoalesceWindow, ReadBuffer: 4 << 10}
	base := len(conns)
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, o.DialParallel)
	var wg sync.WaitGroup
	out := make([]*wireclient.Conn, need)
	for i := 0; i < need; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			c, err := dialFrom(o.SourceIPs[(base+i)%len(o.SourceIPs)], o.Addr, cfg)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[i] = c
		}(i)
	}
	wg.Wait()
	for _, c := range out {
		if c != nil {
			conns = append(conns, c)
		}
	}
	if firstErr != nil {
		return conns, fmt.Errorf("loadharness: dial to %d conns: %w", want, firstErr)
	}
	return conns, nil
}

// dialFrom dials addr with an explicit local source IP, multiplying the
// ephemeral-port space across SourceIPs.
func dialFrom(srcIP, addr string, cfg wireclient.ConnConfig) (*wireclient.Conn, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	if ip := net.ParseIP(srcIP); ip != nil && srcIP != "127.0.0.1" {
		d.LocalAddr = &net.TCPAddr{IP: ip}
	}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return wireclient.NewConn(nc, cfg), nil
}

// runStage drives one open-loop measured window over the given conns,
// returning the counts plus the raw latency samples so callers (the
// single-process path and the worker protocol alike) can merge before
// computing quantiles.
func runStage(conns []*wireclient.Conn, rate float64, o Options) (StageResult, []float64) {
	var (
		issued    uint64
		okN       atomic.Uint64
		notFound  atomic.Uint64
		errs      atomic.Uint64
		inflight  atomic.Int64
		withinSLA atomic.Uint64
	)
	recs := make([]latRec, latShards)
	slaMs := float64(o.SLA) / float64(time.Millisecond)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	val := []byte(strings.Repeat("x", o.ValueBytes))

	start := time.Now()
	interval := float64(time.Second) / rate
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		elapsed := now.Sub(start)
		if elapsed >= o.StageDuration {
			break
		}
		due := uint64(float64(elapsed) / interval)
		for issued < due {
			i := issued
			issued++
			// The request's ideal arrival instant on the open-loop clock.
			sched := start.Add(time.Duration(float64(i) * interval))
			conn := conns[int(i)%len(conns)]
			key := fmt.Sprintf("lh-%06d", rng.Intn(o.Keys))
			req := wireclient.Request{Op: wireclient.OpGet, Key: key}
			if rng.Float64() < o.WriteFrac {
				req = wireclient.Request{Op: wireclient.OpPut, Key: key, Value: val}
			}
			shard := &recs[int(i)%latShards]
			inflight.Add(1)
			conn.Do(&req, func(resp wireclient.Response, err error) {
				defer inflight.Add(-1)
				if err != nil {
					errs.Add(1)
					return
				}
				switch resp.Status {
				case wireclient.StatusOK:
					okN.Add(1)
				case wireclient.StatusNotFound:
					notFound.Add(1)
				default:
					errs.Add(1)
					return
				}
				ms := float64(time.Since(sched)) / float64(time.Millisecond)
				if ms <= slaMs {
					withinSLA.Add(1)
				}
				shard.mu.Lock()
				shard.lats = append(shard.lats, ms)
				shard.mu.Unlock()
			})
		}
	}
	// Grace period for stragglers; whatever is still pending counts as an
	// SLA miss but not an error.
	graceEnd := time.Now().Add(2 * o.SLA)
	for inflight.Load() > 0 && time.Now().Before(graceEnd) {
		time.Sleep(5 * time.Millisecond)
	}

	var lats []float64
	for i := range recs {
		recs[i].mu.Lock()
		lats = append(lats, recs[i].lats...)
		recs[i].mu.Unlock()
	}
	sr := StageResult{
		Conns:      len(conns),
		TargetRate: rate,
		Issued:     issued,
		OK:         okN.Load(),
		NotFound:   notFound.Load(),
		Errors:     errs.Load(),
		SLAMs:      slaMs,
		WithinSLA:  withinSLA.Load(),
	}
	return sr, lats
}

// finalizeStage fills the derived fields (quantiles, achieved rate, SLA
// fraction) from merged raw samples.
func finalizeStage(sr *StageResult, lats []float64, dur time.Duration) {
	if sr.Issued > 0 {
		sr.SLAFrac = float64(sr.WithinSLA) / float64(sr.Issued)
	}
	if len(lats) == 0 {
		return
	}
	sum := metrics.Summarize(lats)
	qs := metrics.Quantiles(lats, 0.5, 0.9, 0.99, 0.999)
	sr.MeanMs, sr.P50Ms, sr.P90Ms, sr.P99Ms, sr.P999Ms = sum.Mean, qs[0], qs[1], qs[2], qs[3]
	sr.AchievedRate = float64(len(lats)) / dur.Seconds()
}

// preload writes every key once through a small pooled client so the
// measured phase reads hit.
func preload(o Options) error {
	cl := wireclient.NewClient([]string{o.Addr}, wireclient.PoolConfig{Size: 4})
	defer cl.Close()
	val := []byte(strings.Repeat("x", o.ValueBytes))
	sem := make(chan struct{}, 64)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < o.Keys; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := cl.Put(fmt.Sprintf("lh-%06d", i), val); err != nil {
				select {
				case errc <- fmt.Errorf("loadharness: preload key %d: %w", i, err):
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}
