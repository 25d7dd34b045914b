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
	"time"

	"dynatune/internal/wire"
)

// ErrClosed reports an operation on a closed connection.
var ErrClosed = errors.New("wireclient: connection closed")

// DefaultCoalesceWindow is how long the writer gathers companions for a
// request issued on a busy connection (one with responses outstanding)
// before it flushes the batch. A request on an idle connection leaves at
// once: nothing is in flight for it to join, and a sub-ms sleep on an
// idle process lasts ~1 ms. Small enough to be invisible next to a
// replication round trip, large enough that concurrent callers on a busy
// connection share a single syscall.
const DefaultCoalesceWindow = 200 * time.Microsecond

// flushThreshold flushes a batch early once this many bytes are queued,
// bounding memory and keeping the pipe busy under heavy load.
const flushThreshold = 64 << 10

// ConnConfig tunes a single pipelined connection.
type ConnConfig struct {
	// CoalesceWindow overrides DefaultCoalesceWindow, the wait for
	// companions when the connection is busy; a request on an idle
	// connection never waits it. < 0 disables coalescing (every request
	// flushes immediately).
	CoalesceWindow time.Duration
	// ReadBuffer sizes the read side (default 64 KiB).
	ReadBuffer int
}

type call struct {
	op Op
	cb func(Response, error)
}

// Conn is one pipelined binary-protocol connection. Many goroutines may
// issue requests concurrently; a writer goroutine coalesces them into
// batched writes and a reader goroutine demultiplexes responses by
// request id, so slow requests never block fast ones behind them. The
// writer flushes at once when a request finds nothing in flight, and
// otherwise waits the coalesce window for companions (group commit: the
// first arrival leads, later ones join the next write).
type Conn struct {
	nc     net.Conn
	window time.Duration

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]call
	wbuf    []byte
	err     error
	closed  bool

	// urgent tells the writer to skip its coalesce window: set by a
	// request that found nothing in flight or filled the buffer, and on
	// failure.
	urgent atomic.Bool
	kick   chan struct{}
	done   chan struct{} // closed when the reader exits
	wg     sync.WaitGroup
}

// NewConn wraps an established net.Conn.
func NewConn(nc net.Conn, cfg ConnConfig) *Conn {
	w := cfg.CoalesceWindow
	if w == 0 {
		w = DefaultCoalesceWindow
	} else if w < 0 {
		w = 0
	}
	rb := cfg.ReadBuffer
	if rb <= 0 {
		rb = 64 << 10
	}
	c := &Conn{
		nc:      nc,
		window:  w,
		pending: make(map[uint64]call),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop(rb)
	return c
}

// Dial connects to addr and returns a pipelined connection.
func Dial(addr string, timeout time.Duration, cfg ConnConfig) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // batching is ours, not Nagle's
	}
	return NewConn(nc, cfg), nil
}

// Do issues req asynchronously; cb runs exactly once (from the reader
// goroutine on response, or from whichever goroutine observes the
// connection failing). The request id is assigned here — the caller's
// r.ID is ignored. cb must not block.
func (c *Conn) Do(r *Request, cb func(Response, error)) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		cb(Response{}, err)
		return
	}
	idle := len(c.pending) == 0
	c.nextID++
	r.ID = c.nextID
	c.pending[r.ID] = call{op: r.Op, cb: cb}
	c.wbuf = AppendRequest(c.wbuf, r)
	if idle || len(c.wbuf) >= flushThreshold {
		c.urgent.Store(true)
	}
	c.mu.Unlock()
	// An urgent kick skips the writer's coalesce window. Any other kick is
	// lazy: the writer sleeps the window after waking, so one kick covers
	// every request queued inside it.
	c.kickWriter()
}

// Call issues req and waits for its response.
func (c *Conn) Call(r *Request) (Response, error) {
	type result struct {
		resp Response
		err  error
	}
	ch := make(chan result, 1)
	c.Do(r, func(resp Response, err error) {
		ch <- result{resp, err}
	})
	res := <-ch
	return res.resp, res.err
}

func (c *Conn) kickWriter() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Pending reports how many requests are awaiting responses.
func (c *Conn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Err returns the terminal connection error, if any.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; in-flight requests fail with ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	c.wg.Wait()
	return nil
}

// fail marks the connection broken and fires every pending callback.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pend := c.pending
	c.pending = nil
	c.wbuf = nil
	c.mu.Unlock()
	c.nc.Close()
	c.urgent.Store(true) // no coalesce wait: the writer just exits
	c.kickWriter()       // let the writer observe closure
	for _, cl := range pend {
		cl.cb(Response{}, err)
	}
}

func (c *Conn) writeLoop() {
	defer c.wg.Done()
	bw := bufio.NewWriterSize(c.nc, flushThreshold+4<<10)
	for {
		select {
		case <-c.kick:
		case <-c.done:
			return
		}
		if c.window > 0 && !c.urgent.Swap(false) {
			time.Sleep(c.window) // gather companions
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		buf := c.wbuf
		c.wbuf = wire.GetBuf(4 << 10)
		c.mu.Unlock()
		if len(buf) == 0 {
			wire.PutBuf(buf)
			continue
		}
		_, err := bw.Write(buf)
		if err == nil {
			err = bw.Flush()
		}
		wire.PutBuf(buf)
		if err != nil {
			c.fail(fmt.Errorf("wireclient: write: %w", err))
			return
		}
	}
}

func (c *Conn) readLoop(bufSize int) {
	defer c.wg.Done()
	defer close(c.done)
	br := bufio.NewReaderSize(c.nc, bufSize)
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			c.fail(readErr(err))
			return
		}
		if n > MaxFrame {
			c.fail(fmt.Errorf("%w: %d-byte frame", ErrCorrupt, n))
			return
		}
		buf := wire.GetBuf(int(n))[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			wire.PutBuf(buf)
			c.fail(readErr(err))
			return
		}
		resp, err := DecodeResponse(buf)
		wire.PutBuf(buf) // DecodeResponse copies; safe to recycle
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		cl, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			cl.cb(resp, nil)
		}
	}
}

func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("wireclient: connection lost: %w", err)
	}
	return fmt.Errorf("wireclient: read: %w", err)
}
