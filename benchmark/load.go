package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynatune/internal/wireclient"
)

const (
	keyCount   = 4096
	valueBytes = 128
	// drainGrace bounds how long a window waits for requests it issued;
	// whatever is still pending after it counts as failed.
	drainGrace = 2 * time.Second
	// spanEvery samples one request in this many for the traced run's
	// client spans, so recording does not become the load.
	spanEvery = 16
)

// sender is the one wireclient.Conn method the generators need; the
// open-loop unit test substitutes a stalling fake.
type sender interface {
	Do(r *wireclient.Request, cb func(wireclient.Response, error))
}

// keyspace is the benchmark's view of what it has been told is stored:
// every value names its key and a per-key sequence number, each key is
// written by exactly one slot or generator, and acked[k] is the sequence
// of the last acknowledged Put — so after quiesce every key must read
// back as exactly that value.
type keyspace struct {
	names  [keyCount]string
	next   [keyCount]uint64      // last sequence issued (owner only)
	acked  [keyCount]uint64      // last sequence acknowledged (owner only)
	unsure [keyCount]bool        // a Put after acked failed: outcome unknown
	busy   [keyCount]atomic.Bool // open loop: a Put is in flight
	bad    atomic.Int64          // Gets that returned another key's value
}

func newKeyspace() *keyspace {
	ks := &keyspace{}
	for k := range ks.names {
		ks.names[k] = fmt.Sprintf("k%04d", k)
	}
	return ks
}

// fillValue writes key k's value for sequence seq into buf[:valueBytes].
func fillValue(buf []byte, k int, seq uint64) []byte {
	buf = buf[:0]
	buf = append(buf, 'k')
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, seq, 10)
	buf = append(buf, ' ')
	for len(buf) < valueBytes {
		buf = append(buf, 'x')
	}
	return buf
}

func parseValue(v []byte) (k int, seq uint64, ok bool) {
	if len(v) != valueBytes || v[0] != 'k' {
		return 0, 0, false
	}
	var a, b int
	for a = 1; a < len(v) && v[a] != ' '; a++ {
	}
	for b = a + 1; b < len(v) && v[b] != ' '; b++ {
	}
	if b >= len(v) {
		return 0, 0, false
	}
	k64, err1 := strconv.ParseInt(string(v[1:a]), 10, 32)
	seq, err2 := strconv.ParseUint(string(v[a+1:b]), 10, 64)
	return int(k64), seq, err1 == nil && err2 == nil
}

// put builds the next Put for key k into val (reused by the caller; Do
// copies it into the connection's write buffer before returning).
func (ks *keyspace) put(k int, val []byte) (wireclient.Request, uint64) {
	ks.next[k]++
	seq := ks.next[k]
	return wireclient.Request{Op: wireclient.OpPut, Key: ks.names[k], Value: fillValue(val, k, seq)}, seq
}

// settle records a Put's outcome (owner of key k only).
func (ks *keyspace) settle(k int, seq uint64, ok bool) {
	if ok {
		ks.acked[k], ks.unsure[k] = seq, false
	} else {
		ks.unsure[k] = true
	}
}

func respOK(resp wireclient.Response, err error) bool {
	return err == nil && resp.Status == wireclient.StatusOK
}

// loadResult is one measured window. Only requests issued inside the
// window are counted; each is either in okLats or in failed.
type loadResult struct {
	window    time.Duration
	attempted int
	failed    int
	okLats    []float64 // ms, client-observed, successful requests
	okAt      []float32 // when each of those completed, s into the window
	lateMs    []float64 // open loop: send instant − scheduled instant
}

func (r *loadResult) merge(o loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.okLats = append(r.okLats, o.okLats...)
	r.okAt = append(r.okAt, o.okAt...)
	r.lateMs = append(r.lateMs, o.lateMs...)
}

// opsPerS is requests answered OK per second of window.
func (r loadResult) opsPerS() float64 { return float64(len(r.okLats)) / r.window.Seconds() }

// steady summarises the window by its one-second slices (a request
// belongs to the slice it completed in; stragglers past the end to the
// last): the median slice's throughput, and the median of the slices' own
// p50 and p90. On a shared box a neighbour's burst lands in a few slices;
// the median slice is what the program did when left alone, and a change
// that slows most slices still moves it.
func (r loadResult) steady() (opsPerS, p50, p90 float64) {
	n := max(1, int(r.window/time.Second))
	width := r.window.Seconds() / float64(n)
	slices := make([][]float64, n)
	for i, l := range r.okLats {
		b := min(n-1, int(float64(r.okAt[i])/width))
		slices[b] = append(slices[b], l)
	}
	ops, p50s, p90s := make([]float64, n), make([]float64, n), make([]float64, n)
	for b, lats := range slices {
		sort.Float64s(lats)
		ops[b] = float64(len(lats)) / width
		p50s[b], p90s[b] = quantileOrZero(lats, 0.5), quantileOrZero(lats, 0.9)
	}
	return median(ops), median(p50s), median(p90s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runClosed drives depth outstanding Puts per connection for window: each
// slot sends its next request only after the previous one completed, so a
// slow system receives less load and ops/s reads capacity. Slot s owns
// keys [s·per, (s+1)·per).
func runClosed(conns []sender, depth int, ks *keyspace, window time.Duration, rec *spanRec) loadResult {
	slots := len(conns) * depth
	per := keyCount / slots
	parts := make([]loadResult, slots)
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, res := conns[s%len(conns)], &parts[s]
			val := make([]byte, 0, valueBytes)
			done := make(chan bool, 1)
			var spans []span
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				k := s*per + i%per
				req, seq := ks.put(k, val)
				conn.Do(&req, func(resp wireclient.Response, err error) { done <- respOK(resp, err) })
				ok := <-done
				t1 := time.Now()
				ks.settle(k, seq, ok)
				res.attempted++
				if !ok {
					res.failed++
					continue
				}
				res.okLats = append(res.okLats, ms(t1.Sub(t0)))
				res.okAt = append(res.okAt, float32(t1.Sub(start).Seconds()))
				if rec != nil && i%spanEvery == 0 {
					spans = append(spans, rec.span("client.put", 0, rec.newID(), t0, t1))
				}
			}
			rec.addAll(spans)
		}(s)
	}
	wg.Wait()
	out := loadResult{window: window}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// openSpec is an open-loop arrival schedule: rate requests per second in
// total, split evenly over the connections, writeFrac of them Puts.
type openSpec struct {
	rate      float64
	writeFrac float64
	window    time.Duration
	seed      int64
	// onDone, when set, sees every completion (from a connection's reader
	// goroutine); the failover probe uses it to find the first request
	// served after a kill.
	onDone func(sched, done time.Time, ok bool)
}

// runOpen sends on the clock whether or not earlier requests returned —
// independent users, not callers waiting for replies. Each request's
// latency runs from its SCHEDULED send instant, so a stall charges every
// request that was due during it instead of thinning the sample, and the
// generator's own lateness (send − scheduled) is recorded beside it.
// Generator g Puts only to keys [g·per, (g+1)·per) and never to one with
// a Put still in flight, so acknowledged values are totally ordered.
func runOpen(conns []sender, spec openSpec, ks *keyspace, rec *spanRec) loadResult {
	per := keyCount / len(conns)
	interval := float64(time.Second) * float64(len(conns)) / spec.rate
	parts := make([]loadResult, len(conns))
	var wg sync.WaitGroup
	for g := range conns {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parts[g] = openGenerator(conns[g], g*per, per, interval, spec, ks, rec)
		}(g)
	}
	wg.Wait()
	out := loadResult{window: spec.window}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

func openGenerator(conn sender, lo, per int, interval float64, spec openSpec, ks *keyspace, rec *spanRec) loadResult {
	rng := rand.New(rand.NewSource(spec.seed + int64(lo)))
	val := make([]byte, 0, valueBytes)
	res := loadResult{}
	var (
		mu      sync.Mutex // guards what callbacks write: okLats, okAt, spans
		okLats  []float64
		okAt    []float32
		spans   []span
		pending atomic.Int64
		putNext int
	)
	start := time.Now()
	end := start.Add(spec.window)
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(float64(i) * interval))
		if !sched.Before(end) {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		res.lateMs = append(res.lateMs, ms(sent.Sub(sched)))
		res.attempted++

		var req wireclient.Request
		putKey, putSeq := -1, uint64(0)
		if rng.Float64() < spec.writeFrac {
			for n := 0; n < per; n++ {
				k := lo + putNext%per
				putNext++
				if ks.busy[k].CompareAndSwap(false, true) {
					putKey = k
					break
				}
			}
		}
		getKey := rng.Intn(keyCount)
		if putKey >= 0 {
			req, putSeq = ks.put(putKey, val)
		} else {
			req = wireclient.Request{Op: wireclient.OpGet, Key: ks.names[getKey]}
		}
		traced := rec != nil && i%spanEvery == 0
		pending.Add(1)
		conn.Do(&req, func(resp wireclient.Response, err error) {
			done := time.Now()
			ok := respOK(resp, err)
			if putKey >= 0 {
				ks.settle(putKey, putSeq, ok)
				ks.busy[putKey].Store(false)
			} else if ok {
				if k, _, good := parseValue(resp.Value); !good || k != getKey {
					ks.bad.Add(1)
					ok = false
				}
			}
			if spec.onDone != nil {
				spec.onDone(sched, done, ok)
			}
			if ok {
				mu.Lock()
				okLats = append(okLats, ms(done.Sub(sched)))
				okAt = append(okAt, float32(done.Sub(start).Seconds()))
				if traced {
					id := rec.newID()
					root := rec.span("client.request", 0, id, sched, done)
					spans = append(spans, root,
						rec.span("client.gen_late", root.ID, id, sched, sent),
						rec.span("wireclient.call", root.ID, id, sent, done))
				}
				mu.Unlock()
			}
			pending.Add(-1)
		})
	}
	for deadline := time.Now().Add(drainGrace); pending.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	res.okLats, res.okAt = okLats, okAt
	rec.addAll(spans)
	mu.Unlock()
	res.failed = res.attempted - len(res.okLats)
	return res
}
