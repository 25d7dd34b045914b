package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/kv"
	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/server/batcher"
	"dynatune/internal/shard"
	"dynatune/internal/sim"
	"dynatune/internal/storage"
	"dynatune/internal/transport"
	"dynatune/internal/wire"
	"dynatune/internal/wireclient"
)

// Single-layer probes: each times calls into one layer's public functions
// with nothing else running. batchOps is the group-commit batch the real
// path carries at saturation (BENCH.json's mean batch depth, 48).
const batchOps = 48

// layerValues collects per-layer metric values by name.
type layerValues map[string]float64

// perOp calls fn(n) — n operations — until budget is spent and returns the
// median call's nanoseconds per operation.
func perOp(budget time.Duration, n int, fn func(n int)) float64 {
	var per []float64
	for deadline := time.Now().Add(budget); len(per) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

func batchCmds() []kv.Command {
	cmds := make([]kv.Command, batchOps)
	for i := range cmds {
		cmds[i] = kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("k%04d", i), Value: fillValue(nil, i, 1)}
	}
	return cmds
}

// sink keeps the compiler from discarding a measured call's result.
var sink int

func probeWireclient(budget time.Duration, out layerValues) error {
	req := wireclient.Request{ID: 7, Op: wireclient.OpPut, Key: "k0042", Value: fillValue(nil, 42, 1)}
	buf := make([]byte, 0, 256)
	out["wireclient.encode_ns_op"] = perOp(budget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			buf = wireclient.AppendRequest(buf[:0], &req)
		}
	})
	_, skip := binary.Uvarint(buf) // DecodeRequest takes the frame body
	body := buf[skip:]
	if _, err := wireclient.DecodeRequest(body); err != nil {
		return fmt.Errorf("wireclient round trip: %w", err)
	}
	out["wireclient.decode_ns_op"] = perOp(budget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			r, _ := wireclient.DecodeRequest(body)
			sink += len(r.Value)
		}
	})
	return nil
}

// appMsg is the message the saturated write path sends most: one MsgApp
// carrying one batchOps-op entry.
func appMsg(index uint64) raft.Message {
	return raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 1, Index: index - 1, LogTerm: 1, Commit: index - 1,
		Entries: []raft.Entry{{Term: 1, Index: index, Data: kv.Encode(kv.BatchCommand(batchCmds()))}}}
}

func probeWire(budget time.Duration, out layerValues) error {
	m := appMsg(10)
	buf := make([]byte, 0, 16<<10)
	out["wire.encode_ns_msg"] = perOp(budget, 512, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.Append(buf[:0], m)
		}
	})
	if _, err := wire.Decode(buf); err != nil {
		return fmt.Errorf("wire round trip: %w", err)
	}
	out["wire.decode_ns_msg"] = perOp(budget, 512, func(n int) {
		for i := 0; i < n; i++ {
			d, _ := wire.Decode(buf)
			sink += len(d.Entries)
		}
	})
	out["transport.bytes_per_msg"] = float64(len(buf))
	return nil
}

func probeKV(budget time.Duration, out layerValues) {
	cmds := batchCmds()
	out["kv.batch_encode_ns_op"] = perOp(budget, 64, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(kv.Encode(kv.BatchCommand(cmds)))
		}
	}) / batchOps
	st := kv.NewStore()
	data := kv.Encode(kv.BatchCommand(cmds))
	var index uint64
	out["kv.apply_ns_op"] = perOp(budget, 64, func(n int) {
		for i := 0; i < n; i++ {
			index++
			st.Apply([]raft.Entry{{Term: 1, Index: index, Data: data}})
		}
	}) / batchOps
	out["kv.get_ns_op"] = perOp(budget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := st.Get(cmds[i%batchOps].Key)
			sink += len(v)
		}
	})
}

func probeBatcher(budget time.Duration, out layerValues) {
	cmd := kv.Command{Op: kv.OpPut, Key: "k0042", Value: fillValue(nil, 42, 1)}
	// Saturation: every batch leaves by the op cap, never the window.
	sat := batcher.New(batcher.Config{Window: time.Hour, Flush: func(ops []batcher.Op, _ batcher.FlushReason) { sink += len(ops) }})
	w := batcher.NewWaiter()
	out["batcher.add_ns_op"] = perOp(budget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sat.Add(cmd, w)
		}
	})
	sat.Drain(errors.New("probe done"))

	// Idle: a lone Add waits out the whole window before it is flushed.
	flushed := make(chan time.Time, 1)
	idle := batcher.New(batcher.Config{Window: batchWindow, Flush: func([]batcher.Op, batcher.FlushReason) { flushed <- time.Now() }})
	waits, _ := timedSamples(budget, 10, func() (float64, error) {
		t0 := time.Now()
		idle.Add(cmd, w)
		return us((<-flushed).Sub(t0)), nil
	})
	idle.Drain(errors.New("probe done"))
	out["batcher.wait_p50_us"] = median(waits)
}

// localGroup is a 3-node raft group on a benchmark-local runtime that
// delivers every message at once and never moves its clock by itself, so
// a commit costs processor time only and the message count is exact.
type localGroup struct {
	nodes   map[raft.ID]*raft.Node
	rts     map[raft.ID]*localRuntime
	queue   []raft.Message
	now     time.Duration
	sent    int
	applied int // entries applied on node 1..3, any node
	appNs   int64
	apps    int
}

type localRuntime struct {
	g      *localGroup
	rng    *rand.Rand
	timers map[localTimer]time.Duration
}

type localTimer struct {
	kind raft.TimerKind
	peer raft.ID
}

func (rt *localRuntime) Now() time.Duration { return rt.g.now }
func (rt *localRuntime) Rand() *rand.Rand   { return rt.rng }
func (rt *localRuntime) Send(m raft.Message) {
	rt.g.sent++
	rt.g.queue = append(rt.g.queue, m)
}
func (rt *localRuntime) SetTimer(kind raft.TimerKind, peer raft.ID, at time.Duration) {
	rt.timers[localTimer{kind, peer}] = at
}
func (rt *localRuntime) CancelTimer(kind raft.TimerKind, peer raft.ID) {
	delete(rt.timers, localTimer{kind, peer})
}

func newLocalGroup() (*localGroup, error) {
	g := &localGroup{nodes: map[raft.ID]*raft.Node{}, rts: map[raft.ID]*localRuntime{}}
	ids := []raft.ID{1, 2, 3}
	for _, id := range ids {
		rt := &localRuntime{g: g, rng: rand.New(rand.NewSource(int64(id))), timers: map[localTimer]time.Duration{}}
		n, err := raft.NewNode(raft.Config{ID: id, Peers: ids, Runtime: rt,
			Tuner: raft.NewStaticTuner(staticEt, staticH),
			Apply: func(ents []raft.Entry) { g.applied += len(ents) }})
		if err != nil {
			return nil, err
		}
		g.nodes[id], g.rts[id] = n, rt
		n.Start()
	}
	return g, nil
}

// deliver drains the queue, timing follower-side Step(MsgApp) calls.
func (g *localGroup) deliver() {
	for len(g.queue) > 0 {
		m := g.queue[0]
		g.queue = g.queue[1:]
		if m.Type == raft.MsgApp && len(m.Entries) > 0 {
			t0 := time.Now()
			g.nodes[m.To].Step(m)
			g.appNs += int64(time.Since(t0))
			g.apps++
			continue
		}
		g.nodes[m.To].Step(m)
	}
}

// elect fires the earliest due timer, one at a time, until a leader
// stands.
func (g *localGroup) elect() (*raft.Node, error) {
	for step := 0; step < 10000; step++ {
		for _, n := range g.nodes {
			if n.State() == raft.StateLeader {
				return n, nil
			}
		}
		var (
			bestID raft.ID
			best   localTimer
			at     = time.Duration(-1)
		)
		for id, rt := range g.rts {
			for k, t := range rt.timers {
				if at < 0 || t < at {
					bestID, best, at = id, k, t
				}
			}
		}
		if at < 0 {
			return nil, errors.New("local raft group: no timer armed")
		}
		g.now = max(g.now, at)
		delete(g.rts[bestID].timers, best)
		g.nodes[bestID].OnTimer(best.kind, best.peer)
		g.deliver()
	}
	return nil, errors.New("local raft group: no leader")
}

func probeRaft(budget time.Duration, out layerValues) error {
	g, err := newLocalGroup()
	if err != nil {
		return err
	}
	lead, err := g.elect()
	if err != nil {
		return err
	}
	data := kv.Encode(kv.BatchCommand(batchCmds()))
	g.sent, g.appNs, g.apps = 0, 0, 0
	entries := 0
	var perr error
	out["raft.commit_ns_entry"] = perOp(budget, 256, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := lead.Propose(data); err != nil {
				perr = err
				return
			}
			g.deliver()
			entries++
		}
		for _, nd := range g.nodes {
			nd.CompactLog(64)
		}
	})
	if perr != nil {
		return fmt.Errorf("local raft group: propose: %w", perr)
	}
	if got := lead.Log().Committed(); got < uint64(entries) {
		return fmt.Errorf("local raft group: committed %d of %d entries", got, entries)
	}
	out["raft.msgs_per_entry"] = float64(g.sent) / float64(entries)
	out["raft.step_app_ns"] = float64(g.appNs) / float64(g.apps)
	return nil
}

func probeTransport(budget time.Duration, out layerValues) error {
	var got atomic.Int64
	arrived := make(chan time.Time, 1)
	var serial atomic.Bool
	addrs := map[raft.ID]transport.PeerAddr{}
	for id := raft.ID(1); id <= 2; id++ {
		tcp, err := reservePort("tcp")
		if err != nil {
			return err
		}
		udp, err := reservePort("udp")
		if err != nil {
			return err
		}
		addrs[id] = transport.PeerAddr{TCP: tcp, UDP: udp}
	}
	a, err := transport.Start(transport.Config{ID: 1, Listen: addrs[1], Peers: addrs, Logger: quiet, Handler: func(raft.Message) {}})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.Start(transport.Config{ID: 2, Listen: addrs[2], Peers: addrs, Logger: quiet, Handler: func(raft.Message) {
		got.Add(1)
		if serial.Load() {
			arrived <- time.Now()
		}
	}})
	if err != nil {
		return err
	}
	defer b.Close()

	m := appMsg(10)
	serial.Store(true)
	oneWay, err := timedSamples(budget, 10, func() (float64, error) {
		t0 := time.Now()
		a.Send(m)
		select {
		case t1 := <-arrived:
			return us(t1.Sub(t0)), nil
		case <-time.After(5 * time.Second):
			return 0, errors.New("transport probe: message not delivered within 5s")
		}
	})
	if err != nil {
		return err
	}
	out["transport.one_way_p50_us"] = median(oneWay)

	// Throughput: keep the per-peer queue well under its drop-oldest cap.
	serial.Store(false)
	const window = 512
	base, sent := got.Load(), int64(0)
	t0 := time.Now()
	for deadline := t0.Add(budget); time.Now().Before(deadline); {
		if sent-(got.Load()-base) >= window {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		a.Send(m)
		sent++
	}
	for deadline := time.Now().Add(2 * time.Second); got.Load()-base < sent && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	out["transport.msgs_per_s"] = float64(got.Load()-base) / time.Since(t0).Seconds()
	return nil
}

func probeStorage(budget time.Duration, scratch string, out layerValues) error {
	var index uint64
	next := func() []raft.Entry {
		index++
		return []raft.Entry{{Term: 1, Index: index, Data: kv.Encode(kv.BatchCommand(batchCmds()))}}
	}
	// withWAL opens a fresh WAL under scratch, runs fn on it, and removes it.
	withWAL := func(noSync bool, fn func(w *storage.WAL, dir string) error) error {
		dir, err := os.MkdirTemp(scratch, "wal-probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		w, _, err := storage.Open(dir, storage.WALOptions{NoSync: noSync})
		if err != nil {
			return err
		}
		index = 0
		err = fn(w, dir)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	}
	err := withWAL(true, func(w *storage.WAL, dir string) error {
		var werr error
		out["storage.append_nosync_ns_op"] = perOp(budget, 64, func(n int) {
			for i := 0; i < n && werr == nil; i++ {
				werr = w.AppendEntries(next())
			}
		})
		if werr != nil {
			return werr
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			return err
		}
		var bytes int64
		for _, s := range segs {
			fi, err := os.Stat(s)
			if err != nil {
				return err
			}
			bytes += fi.Size()
		}
		out["storage.bytes_per_entry"] = float64(bytes) / float64(index)
		return nil
	})
	if err == nil {
		err = withWAL(false, func(w *storage.WAL, _ string) error {
			syncUs, err := timedSamples(budget, 10, func() (float64, error) {
				ents := next()
				t0 := time.Now()
				err := w.AppendEntries(ents)
				return us(time.Since(t0)), err
			})
			out["storage.append_sync_p50_us"] = median(syncUs)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("storage probe: %w", err)
	}
	return nil
}

func probeDynatune(budget time.Duration, out layerValues) {
	const rtt = 100 * time.Millisecond
	// Fixed trace: RTT 100 ms ± 2 ms, alternating, so Et and h are exact.
	feed := func(tn *dynatune.Tuner, seq uint64) {
		r := rtt + 2*time.Millisecond
		if seq%2 == 0 {
			r = rtt - 2*time.Millisecond
		}
		tn.ObserveHeartbeat(1, raft.HeartbeatMeta{Seq: seq, SendTime: 1, RTT: int64(r)}, 0)
	}
	tn := dynatune.MustNew(dynatune.Options{})
	var seq uint64
	for seq < dynatune.DefaultMaxListSize {
		seq++
		feed(tn, seq)
	}
	out["dynatune.et_ms"] = ms(tn.TunedEt())
	out["dynatune.h_ms"] = ms(tn.TunedH())
	// The window is full from here on: every observation evicts one.
	out["dynatune.observe_ns_op"] = perOp(budget, 1024, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			feed(tn, seq)
		}
	})
}

func probeSim(budget time.Duration, out layerValues) {
	// A steady 4k-event backlog, the regime a cluster simulation runs in.
	eng := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		eng.Schedule(eng.Now()+time.Duration(i)*time.Microsecond, fn)
	}
	out["sim.events_per_s"] = 1e9 / perOp(budget, 8192, func(n int) {
		for i := 0; i < n; i++ {
			eng.Schedule(eng.Now()+4096*time.Microsecond, fn)
			eng.Step()
		}
	})
	neng := sim.NewEngine(1)
	nw := netsim.New(neng, 2, netsim.Constant(netsim.Params{RTT: time.Millisecond, Jitter: 100 * time.Microsecond}),
		func(_, msg int) { sink += msg })
	out["netsim.deliver_ns_op"] = perOp(budget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			nw.Send(0, 1, netsim.UDP, i)
			neng.Run(neng.Now() + 2*time.Millisecond)
		}
	})
	router := shard.NewRouter(4, 0)
	ks := newKeyspace()
	out["shard.route_ns_op"] = perOp(budget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			sink += int(router.Route(ks.names[i%keyCount]))
		}
	})
}

// runMicroProbes runs every single-layer probe, each inside its budget.
func runMicroProbes(budget time.Duration, scratch string, rec *spanRec, out layerValues) error {
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"wireclient", func() error { return probeWireclient(budget, out) }},
		{"wire", func() error { return probeWire(budget, out) }},
		{"kv", func() error { probeKV(budget, out); return nil }},
		{"batcher", func() error { probeBatcher(budget, out); return nil }},
		{"raft", func() error { return probeRaft(budget, out) }},
		{"transport", func() error { return probeTransport(budget, out) }},
		{"storage", func() error { return probeStorage(budget, scratch, out) }},
		{"dynatune", func() error { probeDynatune(budget, out); return nil }},
		{"sim", func() error { probeSim(budget, out); return nil }},
	} {
		if err := rec.phase("probe."+p.name, p.fn); err != nil {
			return err
		}
	}
	return nil
}
