package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/wire"
	"dynatune/internal/wireclient"
)

// The binary API: the only client data path, served by every node and by
// the sharded BinFront. One TCP connection carries many concurrent
// requests (demuxed by request id);
// each connection runs a reader/writer goroutine pair, a bounded inflight
// semaphore provides backpressure, and responses batch naturally — the
// writer flushes only when its queue runs dry, so a burst of completions
// leaves in one syscall.

const (
	// binMaxInflight bounds concurrently executing requests per
	// connection; the reader stops decoding once the budget is spent, so
	// TCP flow control pushes back on the client.
	binMaxInflight = 256
	// binDrainTimeout bounds how long shutdown waits for in-flight
	// requests before tearing connections down.
	binDrainTimeout = 5 * time.Second
	// maxValueBytes caps a put's value; larger values are rejected, never
	// truncated.
	maxValueBytes = 1 << 20
	// maxMultiGetKeys bounds one multiget on a node or the front; larger
	// batches are rejected rather than amplified onto the backends.
	maxMultiGetKeys = 1024
)

// binHandler executes one request and returns its response (the caller
// stamps the response ID). It may block; it runs on its own goroutine.
type binHandler func(req wireclient.Request) wireclient.Response

// binServer accepts binary-protocol connections and serves them through
// a handler. It is shared by the node API and the sharded BinFront.
type binServer struct {
	ln     net.Listener
	handle binHandler
	lg     *log.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

func startBinServer(listen string, handle binHandler, lg *log.Logger) (*binServer, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("server: bin listen: %w", err)
	}
	b := &binServer{ln: ln, handle: handle, lg: lg, conns: map[net.Conn]struct{}{}}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

func (b *binServer) addr() string { return b.ln.Addr().String() }

func (b *binServer) acceptLoop() {
	defer b.wg.Done()
	for {
		nc, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			nc.Close()
			return
		}
		b.conns[nc] = struct{}{}
		b.mu.Unlock()
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		b.wg.Add(1)
		go b.serveConn(nc)
	}
}

// serveConn runs one connection: the reader decodes requests and spawns
// bounded handler goroutines; completions funnel through out to a writer
// that batches flushes. When the reader exits (EOF, error, or drain
// deadline) it waits for in-flight handlers, closes out, and the writer
// flushes the tail before the connection closes — so a drained shutdown
// answers everything it accepted.
func (b *binServer) serveConn(nc net.Conn) {
	defer b.wg.Done()
	defer func() {
		b.mu.Lock()
		delete(b.conns, nc)
		b.mu.Unlock()
		nc.Close()
	}()

	out := make(chan wireclient.Response, binMaxInflight)
	sem := make(chan struct{}, binMaxInflight)

	var ww sync.WaitGroup
	ww.Add(1)
	go func() { // writer
		defer ww.Done()
		bw := bufio.NewWriterSize(nc, 64<<10)
		dead := false
		for resp := range out {
			if dead {
				continue // drain so handlers never block on a dead pipe
			}
			buf := wireclient.AppendResponse(wire.GetBuf(512), &resp)
			_, err := bw.Write(buf)
			wire.PutBuf(buf)
			if err == nil && len(out) == 0 {
				err = bw.Flush() // queue dry: ship the batch
			}
			if err != nil {
				dead = true
				nc.Close() // unblock the reader too
			}
		}
		if !dead {
			bw.Flush()
		}
	}()

	var inflight sync.WaitGroup
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			b.logReadErr(err)
			break
		}
		if n > wireclient.MaxFrame {
			b.lg.Printf("bin: oversize %d-byte frame", n)
			break
		}
		buf := wire.GetBuf(int(n))[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			wire.PutBuf(buf)
			b.logReadErr(err)
			break
		}
		req, err := wireclient.DecodeRequest(buf)
		wire.PutBuf(buf)
		if err != nil {
			b.lg.Printf("bin: %v", err)
			break
		}
		sem <- struct{}{} // backpressure: cap concurrent handlers
		inflight.Add(1)
		go func(req wireclient.Request) {
			defer inflight.Done()
			resp := b.handle(req)
			resp.ID = req.ID
			resp.Op = req.Op
			out <- resp
			<-sem
		}(req)
	}
	inflight.Wait()
	close(out)
	ww.Wait()
}

func (b *binServer) logReadErr(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return // clean disconnect or shutdown
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return // drain deadline
	}
	b.lg.Printf("bin: read: %v", err)
}

// close drains gracefully: stop accepting, stop reading new requests
// (via a read deadline in the past), let in-flight requests finish and
// their responses flush, then force-close whatever remains.
func (b *binServer) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.ln.Close()
	for nc := range b.conns {
		nc.SetReadDeadline(time.Unix(1, 0)) // readers unblock, writers drain
	}
	b.mu.Unlock()

	done := make(chan struct{})
	go func() { b.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(binDrainTimeout):
		b.mu.Lock()
		for nc := range b.conns {
			nc.Close()
		}
		b.mu.Unlock()
		<-done
	}
}

// --- node-side binary API ---

// handleBin serves one binary request against this node: puts and
// deletes replicate through Propose; gets default to leader lease reads
// (FlagLocal for a local read, FlagReadIndex for a ReadIndex quorum
// round); multigets ride one lease barrier then read locally.
// Leader-only failures answer StatusNotLeader with this node's best
// leader hint.
func (s *Server) handleBin(req wireclient.Request) wireclient.Response {
	if msg := badRequest(&req); msg != "" {
		return binErrf(msg)
	}
	resp := wireclient.Response{}
	switch req.Op {
	case wireclient.OpPing:

	case wireclient.OpPut:
		if len(req.Value) > maxValueBytes {
			return binErrf(fmt.Sprintf("value exceeds %d bytes", maxValueBytes))
		}
		return s.binPropose(kv.Command{Op: kv.OpPut, Key: req.Key, Value: req.Value})

	case wireclient.OpDelete:
		return s.binPropose(kv.Command{Op: kv.OpDelete, Key: req.Key})

	case wireclient.OpGet:
		var v []byte
		var ok bool
		if req.Flags&wireclient.FlagLocal != 0 {
			v, ok = s.Get(req.Key)
		} else {
			var err error
			v, ok, err = s.GetLinearizable(req.Key, req.Flags&wireclient.FlagReadIndex == 0)
			if isNotLeaderErr(err) {
				return s.binMisdirected()
			}
			if err != nil {
				return binErrf(err.Error())
			}
		}
		if !ok {
			resp.Status = wireclient.StatusNotFound
			return resp
		}
		resp.Value = v

	case wireclient.OpMultiGet:
		if len(req.Keys) > maxMultiGetKeys {
			return binErrf(fmt.Sprintf("at most %d keys per multiget", maxMultiGetKeys))
		}
		// One lease barrier covers every key read after it: the reads are
		// leader-local at the barrier point, at 1/K the confirmation cost
		// of K lease reads.
		err := s.readBarrier(true)
		if isNotLeaderErr(err) {
			return s.binMisdirected()
		}
		if err != nil {
			return binErrf(err.Error())
		}
		resp.Multi = make([][]byte, len(req.Keys))
		resp.Found = make([]bool, len(req.Keys))
		for i, k := range req.Keys {
			resp.Multi[i], resp.Found[i] = s.Get(k)
		}

	default:
		return binErrf(fmt.Sprintf("bad op %d", req.Op))
	}
	return resp
}

// badRequest names what makes req unservable ("" if nothing): an empty
// key on a single-key op, or both read-consistency flags at once. The
// node and the front reject the same requests.
func badRequest(req *wireclient.Request) string {
	const both = wireclient.FlagLocal | wireclient.FlagReadIndex
	if req.Flags&both == both {
		return "FlagLocal and FlagReadIndex are exclusive"
	}
	switch req.Op {
	case wireclient.OpPut, wireclient.OpGet, wireclient.OpDelete:
		if req.Key == "" {
			return "missing key"
		}
	}
	return ""
}

// binPropose replicates cmd and maps the outcome onto a response.
func (s *Server) binPropose(cmd kv.Command) wireclient.Response {
	err := s.Propose(cmd)
	if errors.Is(err, raft.ErrNotLeader) {
		return s.binMisdirected()
	}
	if err != nil {
		return binErrf(err.Error())
	}
	return wireclient.Response{}
}

func isNotLeaderErr(err error) bool {
	return errors.Is(err, raft.ErrNotLeader) || errors.Is(err, raft.ErrNotReady) || errors.Is(err, ErrReadAborted)
}

func (s *Server) binMisdirected() wireclient.Response {
	return wireclient.Response{
		Status: wireclient.StatusNotLeader,
		Leader: uint64(s.Status().Leader),
	}
}

func binErrf(msg string) wireclient.Response {
	return wireclient.Response{Status: wireclient.StatusErr, Err: msg}
}
