package main

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"dynatune/internal/wireclient"
)

func TestValueRoundTrip(t *testing.T) {
	v := fillValue(nil, 4095, 123456789)
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes, want %d", len(v), valueBytes)
	}
	k, seq, ok := parseValue(v)
	if !ok || k != 4095 || seq != 123456789 {
		t.Fatalf("parseValue = %d, %d, %v", k, seq, ok)
	}
	if _, _, ok := parseValue([]byte("short")); ok {
		t.Error("parseValue accepted a foreign value")
	}
}

// stallServer answers every request correctly after delay, except that it
// answers nothing at all between stallFrom and stallTo.
type stallServer struct {
	start              time.Time
	delay              time.Duration
	stallFrom, stallTo time.Duration
	wg                 sync.WaitGroup
}

func (s *stallServer) Do(r *wireclient.Request, cb func(wireclient.Response, error)) {
	req := *r
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		time.Sleep(s.delay)
		if at := time.Since(s.start); at >= s.stallFrom && at < s.stallTo {
			time.Sleep(s.stallTo - at)
		}
		resp := wireclient.Response{Status: wireclient.StatusOK}
		if req.Op == wireclient.OpGet {
			k, _ := strconv.Atoi(req.Key[1:])
			resp.Value = fillValue(nil, k, 1)
		}
		cb(resp, nil)
	}()
}

// A stall must show up as latency and missed SLA on the requests that were
// due during it — not as fewer samples, which is what a generator that
// waits for replies (or times from the actual send) would report.
func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const (
		rate   = 2000.0
		window = 600 * time.Millisecond
		limit  = 10.0
	)
	measure := func(stall time.Duration) loadResult {
		srv := &stallServer{start: time.Now(), delay: time.Millisecond, stallFrom: 200 * time.Millisecond, stallTo: 200*time.Millisecond + stall}
		res := runOpen([]sender{srv, srv}, openSpec{rate: rate, writeFrac: 0.1, window: window, seed: 1}, newKeyspace(), nil)
		srv.wg.Wait()
		return res
	}
	calm, stalled := measure(0), measure(200*time.Millisecond)

	want := int(rate * window.Seconds())
	for name, res := range map[string]loadResult{"calm": calm, "stalled": stalled} {
		if res.attempted < want-2 || res.attempted > want {
			t.Errorf("%s: attempted %d requests, want %d: the schedule must not thin out", name, res.attempted, want)
		}
		if res.failed != 0 || len(res.okLats) != res.attempted {
			t.Errorf("%s: %d failed, %d samples for %d attempted", name, res.failed, len(res.okLats), res.attempted)
		}
		if len(res.lateMs) != res.attempted {
			t.Errorf("%s: %d lateness samples for %d attempted", name, len(res.lateMs), res.attempted)
		}
	}
	calmLat, stalledLat := summarize(calm.okLats), summarize(stalled.okLats)
	if stalledLat.p90 < 50 || stalledLat.p90 < 5*calmLat.p90 {
		t.Errorf("p90 %.2f ms with a 200 ms stall vs %.2f ms without: the stall did not inflate latency", stalledLat.p90, calmLat.p90)
	}
	calmSLA, stalledSLA := slaFrac(calm.okLats, calm.attempted, limit), slaFrac(stalled.okLats, stalled.attempted, limit)
	// A third of the window was stalled, so about a third of the requests
	// must miss the limit.
	if calmSLA < 0.9 || stalledSLA > 0.75 {
		t.Errorf("sla_frac %.3f without the stall, %.3f with it: want > 0.9 and < 0.75", calmSLA, stalledSLA)
	}
}

func TestClosedLoopKeepsSlotsOnDisjointKeys(t *testing.T) {
	srv := &stallServer{start: time.Now(), stallFrom: time.Hour}
	ks := newKeyspace()
	res := runClosed([]sender{srv, srv}, 4, ks, 50*time.Millisecond, nil)
	srv.wg.Wait()
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
	issued := 0
	for k := range ks.next {
		if ks.acked[k] != ks.next[k] {
			t.Fatalf("key %d: acknowledged %d of %d issued with no failures", k, ks.acked[k], ks.next[k])
		}
		issued += int(ks.next[k])
	}
	if issued != res.attempted {
		t.Errorf("keys saw %d puts, generator attempted %d", issued, res.attempted)
	}
}
