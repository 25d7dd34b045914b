package wireclient

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers the binary protocol with a handler, optionally
// delaying or reordering; it counts inbound TCP reads so coalescing is
// observable.
type stubServer struct {
	ln     net.Listener
	handle func(Request) Response
	reads  atomic.Int64 // syscall-level reads that returned data
	wg     sync.WaitGroup
}

func startStub(t testing.TB, handle func(Request) Response) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, handle: handle}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.serve(nc)
		}
	}()
	t.Cleanup(func() { ln.Close(); s.wg.Wait() })
	return s
}

func (s *stubServer) serve(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	var mu sync.Mutex // serializes response writes
	br := bufio.NewReader(&countingReader{r: nc, n: &s.reads})
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		req, err := DecodeRequest(buf)
		if err != nil {
			return
		}
		go func(req Request) {
			resp := s.handle(req)
			resp.ID = req.ID
			resp.Op = req.Op
			out := AppendResponse(nil, &resp)
			mu.Lock()
			nc.Write(out) //nolint:errcheck // test stub
			mu.Unlock()
		}(req)
	}
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.n.Add(1)
	}
	return n, err
}

func echoHandler(req Request) Response {
	switch req.Op {
	case OpGet:
		return Response{Status: StatusOK, Value: []byte("val-" + req.Key)}
	case OpPut, OpPing:
		return Response{Status: StatusOK}
	default:
		return Response{Status: StatusErr, Err: "unsupported"}
	}
}

func TestConnCall(t *testing.T) {
	s := startStub(t, echoHandler)
	c, err := Dial(s.ln.Addr().String(), time.Second, ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Request{Op: OpGet, Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || string(resp.Value) != "val-k1" {
		t.Fatalf("got %+v", resp)
	}
}

// Many concurrent requests on ONE connection must all complete and demux
// to their own callbacks, even when the server answers out of order.
func TestConnPipelinesConcurrentRequests(t *testing.T) {
	s := startStub(t, func(req Request) Response {
		if req.Key == "slow" {
			time.Sleep(50 * time.Millisecond)
		}
		return echoHandler(req)
	})
	c, err := Dial(s.ln.Addr().String(), time.Second, ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A slow request launched first must not block the fast ones: that is
	// the pipelining contract.
	slowDone := make(chan Response, 1)
	c.Do(&Request{Op: OpGet, Key: "slow"}, func(r Response, err error) {
		if err != nil {
			t.Errorf("slow: %v", err)
		}
		slowDone <- r
	})
	const N = 64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%02d", i)
			resp, err := c.Call(&Request{Op: OpGet, Key: key})
			if err != nil {
				t.Errorf("call %s: %v", key, err)
				return
			}
			if string(resp.Value) != "val-"+key {
				t.Errorf("demux mixed up: key %s got %q", key, resp.Value)
			}
		}(i)
	}
	wg.Wait()
	if fastTime := time.Since(start); fastTime > 40*time.Millisecond {
		t.Errorf("fast requests waited on the slow one: %v", fastTime)
	}
	select {
	case r := <-slowDone:
		if string(r.Value) != "val-slow" {
			t.Fatalf("slow got %q", r.Value)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slow request never completed")
	}
}

// Requests issued within the coalesce window should leave as few batched
// writes, not one TCP segment each.
func TestConnWriteCoalescing(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	s := startStub(t, func(req Request) Response {
		if req.Key == "held" {
			close(arrived)
			<-release
		}
		return echoHandler(req)
	})
	c, err := Dial(s.ln.Addr().String(), time.Second, ConnConfig{CoalesceWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prime the connection so dial/first-write effects are excluded.
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	// Hold one request at the server so the connection stays busy: the
	// requests below each find one pending and must wait for companions.
	held := make(chan error, 1)
	c.Do(&Request{Op: OpGet, Key: "held"}, func(_ Response, err error) { held <- err })
	<-arrived
	base := s.reads.Load()
	const N = 50
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		c.Do(&Request{Op: OpGet, Key: fmt.Sprintf("c%02d", i)}, func(Response, error) { wg.Done() })
	}
	wg.Wait()
	got := s.reads.Load() - base
	// 50 un-coalesced requests would be ~50 reads; issued inside one
	// window they leave as one write. Allow slack for a descheduled loop.
	if got > 3 {
		t.Fatalf("server saw %d reads for %d requests issued behind a pending one", got, N)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// A request that finds nothing in flight leaves at once: even an hour-long
// coalesce window is never waited on an idle connection.
func TestConnIdleCallSkipsWindow(t *testing.T) {
	s := startStub(t, echoHandler)
	c, err := Dial(s.ln.Addr().String(), time.Second, ConnConfig{CoalesceWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		c.Do(&Request{Op: OpPing}, func(_ Response, err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(500 * time.Millisecond):
			t.Fatalf("idle call %d still pending after 500ms: it is waiting the coalesce window", i)
		}
	}
}

// BenchmarkConnCallIdle times one request on an idle connection against a
// loopback echo server: the client's side of a serial request stream.
func BenchmarkConnCallIdle(b *testing.B) {
	s := startStub(b, echoHandler)
	c, err := Dial(s.ln.Addr().String(), time.Second, ConnConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := Request{Op: OpPing}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Call(&req); err != nil {
			b.Fatal(err)
		}
	}
}

// A dead connection must fail every pending request, not hang them.
func TestConnFailurePropagates(t *testing.T) {
	block := make(chan struct{})
	s := startStub(t, func(req Request) Response {
		<-block
		return echoHandler(req)
	})
	c, err := Dial(s.ln.Addr().String(), time.Second, ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	c.Do(&Request{Op: OpGet, Key: "k"}, func(_ Response, err error) { errc <- err })
	time.Sleep(10 * time.Millisecond) // let it reach the server
	s.ln.Close()
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending request succeeded after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request hung after close")
	}
	close(block)
	if _, err := c.Call(&Request{Op: OpPing}); !errors.Is(err, ErrClosed) && err == nil {
		t.Fatal("closed conn accepted a call")
	}
}

// The pool fails fast during a backoff window instead of dialing a dead
// address on every request, and recovers once the server is back.
func TestPoolDialBackoffAndRecovery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening now

	p := NewPool(addr, PoolConfig{Size: 1, DialTimeout: 200 * time.Millisecond,
		BackoffBase: 50 * time.Millisecond, BackoffMax: 200 * time.Millisecond})
	defer p.Close()
	if _, err := p.Get(); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	// Immediately after a failed dial we must be in backoff: the error
	// should be instant (no dial attempt), mentioning the backoff.
	t0 := time.Now()
	_, err = p.Get()
	if err == nil {
		t.Fatal("backoff window handed out a connection")
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("backoff Get dialed anyway (took %v)", d)
	}

	// Server comes back; after the backoff expires the pool reconnects.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	s := &stubServer{ln: ln2, handle: echoHandler}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln2.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go s.serve(nc)
		}
	}()
	// Defers run LIFO: the pool's connection must close before s.wg.Wait,
	// or the stub's serve goroutine blocks forever on a live conn.
	defer func() { p.Close(); ln2.Close(); s.wg.Wait() }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, err := p.Call(&Request{Op: OpPing}); err == nil && resp.Status == StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered after server restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
