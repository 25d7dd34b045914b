// Package wireclient is the binary client protocol for the real serving
// path: a length-prefixed (uvarint) framing with request-id demultiplexing
// so one TCP connection carries many concurrent pipelined requests, a
// pooled connection layer with write coalescing (requests queued within a
// small window leave as one batched write), and a sharded client that
// follows in-protocol leader hints. It is the only client data protocol
// the nodes and the sharded front speak: no header parsing, no
// per-request connection state, and responses may complete out of order.
//
// Frame layout (both directions):
//
//	uvarint frameLen | payload
//
// Request payload:
//
//	uvarint reqID | op(1) | flags(1) | body
//	  OpPut:      uvarint klen | key | uvarint vlen | value
//	  OpGet:      uvarint klen | key
//	  OpMultiGet: uvarint n | n × (uvarint klen | key)
//	  OpPing:     empty
//	  OpDelete:   uvarint klen | key
//
// Response payload:
//
//	uvarint reqID | op(1) | status(1) | body
//	  StatusOK   + OpGet:      uvarint vlen | value
//	  StatusOK   + OpMultiGet: uvarint n | n × (found(1) | uvarint vlen | value)
//	  StatusNotLeader:         uvarint leaderHint (node ID, 0 = unknown)
//	  StatusErr:               uvarint mlen | message
//
// Buffers cycle through the size-classed pool shared with internal/wire
// (wire.GetBuf/PutBuf), keeping the encode path allocation-free in steady
// state.
package wireclient

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dynatune/internal/wire"
)

// Op enumerates client operations.
type Op uint8

const (
	// OpPut replicates a key=value write through the owning group's leader.
	OpPut Op = iota + 1
	// OpGet reads a key (leader lease read by default, FlagLocal for a
	// local read on whichever node answers, FlagReadIndex for a full
	// ReadIndex quorum round on the leader).
	OpGet
	// OpMultiGet reads several keys in one request; results are positional.
	OpMultiGet
	// OpPing measures a protocol round trip without touching the store.
	OpPing
	// OpDelete removes a key through the owning group's leader.
	OpDelete
)

// valid reports whether o is a defined op; both decoders reject the rest.
func (o Op) valid() bool { return o >= OpPut && o <= OpDelete }

// isWrite reports whether o changes the store. A write whose connection
// dies mid-call may already have committed, so it is never re-sent.
func (o Op) isWrite() bool { return o == OpPut || o == OpDelete }

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpMultiGet:
		return "multiget"
	case OpPing:
		return "ping"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status enumerates response outcomes.
type Status uint8

const (
	// StatusOK is a successful operation.
	StatusOK Status = iota
	// StatusNotFound reports an absent key (OpGet only).
	StatusNotFound
	// StatusNotLeader redirects: the addressed node is not the group's
	// leader; the payload carries its best leader hint (node ID, 0 =
	// unknown), which GroupClient follows.
	StatusNotLeader
	// StatusErr is any other failure, with a message.
	StatusErr
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusNotLeader:
		return "not-leader"
	case StatusErr:
		return "err"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Request flags select an OpGet's consistency; with neither set the
// leader serves a lease read. Setting both is an error.
const (
	// FlagLocal requests a local (possibly stale) read on whichever node
	// answers.
	FlagLocal = 1 << 0
	// FlagReadIndex requests a linearizable read confirmed by a ReadIndex
	// quorum round, never by the lease alone.
	FlagReadIndex = 1 << 1
)

// MaxFrame bounds one protocol frame; it matches the raft wire codec's cap
// so both serving paths share buffer classes.
const MaxFrame = wire.MaxFrame

// ErrCorrupt reports an undecodable frame.
var ErrCorrupt = errors.New("wireclient: corrupt frame")

// Request is one decoded client request.
type Request struct {
	ID    uint64
	Op    Op
	Flags uint8
	Key   string
	Value []byte
	Keys  []string // OpMultiGet
}

// Response is one decoded reply.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	Value  []byte
	// Multi holds OpMultiGet results positionally; Found marks which keys
	// existed.
	Multi [][]byte
	Found []bool
	// Leader is the hint carried by StatusNotLeader (0 = unknown).
	Leader uint64
	// Err is the StatusErr message.
	Err string
}

// AppendRequest serializes r (framed) onto buf.
func AppendRequest(buf []byte, r *Request) []byte {
	body := wire.GetBuf(2 + 2*binary.MaxVarintLen64 + len(r.Key) + len(r.Value))
	body = binary.AppendUvarint(body, r.ID)
	body = append(body, byte(r.Op), r.Flags)
	switch r.Op {
	case OpPut:
		body = appendBytes(body, []byte(r.Key))
		body = appendBytes(body, r.Value)
	case OpGet, OpDelete:
		body = appendBytes(body, []byte(r.Key))
	case OpMultiGet:
		body = binary.AppendUvarint(body, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			body = appendBytes(body, []byte(k))
		}
	case OpPing:
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	wire.PutBuf(body)
	return buf
}

// AppendResponse serializes r (framed) onto buf.
func AppendResponse(buf []byte, r *Response) []byte {
	body := wire.GetBuf(2 + 2*binary.MaxVarintLen64 + len(r.Value))
	body = binary.AppendUvarint(body, r.ID)
	body = append(body, byte(r.Op), byte(r.Status))
	switch r.Status {
	case StatusOK:
		switch r.Op {
		case OpGet:
			body = appendBytes(body, r.Value)
		case OpMultiGet:
			body = binary.AppendUvarint(body, uint64(len(r.Multi)))
			for i, v := range r.Multi {
				found := byte(0)
				if i < len(r.Found) && r.Found[i] {
					found = 1
				}
				body = append(body, found)
				body = appendBytes(body, v)
			}
		}
	case StatusNotLeader:
		body = binary.AppendUvarint(body, r.Leader)
	case StatusErr:
		body = appendBytes(body, []byte(r.Err))
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = append(buf, body...)
	wire.PutBuf(body)
	return buf
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// DecodeRequest parses one request payload (the frame length prefix
// already consumed). The returned request's byte fields are copies — the
// caller may recycle b.
func DecodeRequest(b []byte) (Request, error) {
	var r Request
	id, n := binary.Uvarint(b)
	if n <= 0 || len(b) < n+2 {
		return r, fmt.Errorf("%w: short request header", ErrCorrupt)
	}
	r.ID = id
	r.Op = Op(b[n])
	r.Flags = b[n+1]
	if !r.Op.valid() {
		return r, fmt.Errorf("%w: bad op %d", ErrCorrupt, b[n])
	}
	rest := b[n+2:]
	var err error
	switch r.Op {
	case OpPut:
		var k, v []byte
		if k, rest, err = takeBytes(rest); err != nil {
			return r, fmt.Errorf("%w: put key: %v", ErrCorrupt, err)
		}
		if v, rest, err = takeBytes(rest); err != nil {
			return r, fmt.Errorf("%w: put value: %v", ErrCorrupt, err)
		}
		r.Key = string(k)
		r.Value = append([]byte(nil), v...)
	case OpGet, OpDelete:
		var k []byte
		if k, rest, err = takeBytes(rest); err != nil {
			return r, fmt.Errorf("%w: %s key: %v", ErrCorrupt, r.Op, err)
		}
		r.Key = string(k)
	case OpMultiGet:
		cnt, n := binary.Uvarint(rest)
		if n <= 0 {
			return r, fmt.Errorf("%w: multiget count", ErrCorrupt)
		}
		rest = rest[n:]
		if cnt > uint64(len(rest)) { // each key costs ≥1 byte on the wire
			return r, fmt.Errorf("%w: multiget count %d exceeds payload", ErrCorrupt, cnt)
		}
		r.Keys = make([]string, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			var k []byte
			if k, rest, err = takeBytes(rest); err != nil {
				return r, fmt.Errorf("%w: multiget key %d: %v", ErrCorrupt, i, err)
			}
			r.Keys = append(r.Keys, string(k))
		}
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return r, nil
}

// DecodeResponse parses one response payload. Byte fields are copies.
func DecodeResponse(b []byte) (Response, error) {
	var r Response
	id, n := binary.Uvarint(b)
	if n <= 0 || len(b) < n+2 {
		return r, fmt.Errorf("%w: short response header", ErrCorrupt)
	}
	r.ID = id
	r.Op = Op(b[n])
	r.Status = Status(b[n+1])
	if !r.Op.valid() {
		return r, fmt.Errorf("%w: bad op %d", ErrCorrupt, b[n])
	}
	rest := b[n+2:]
	var err error
	switch r.Status {
	case StatusOK:
		switch r.Op {
		case OpGet:
			var v []byte
			if v, rest, err = takeBytes(rest); err != nil {
				return r, fmt.Errorf("%w: get value: %v", ErrCorrupt, err)
			}
			r.Value = append([]byte(nil), v...)
		case OpMultiGet:
			cnt, n := binary.Uvarint(rest)
			if n <= 0 {
				return r, fmt.Errorf("%w: multiget count", ErrCorrupt)
			}
			rest = rest[n:]
			if cnt > uint64(len(rest))+1 { // found byte costs ≥1 byte each
				return r, fmt.Errorf("%w: multiget count %d exceeds payload", ErrCorrupt, cnt)
			}
			r.Multi = make([][]byte, 0, cnt)
			r.Found = make([]bool, 0, cnt)
			for i := uint64(0); i < cnt; i++ {
				if len(rest) < 1 {
					return r, fmt.Errorf("%w: multiget found byte %d", ErrCorrupt, i)
				}
				found := rest[0] != 0
				rest = rest[1:]
				var v []byte
				if v, rest, err = takeBytes(rest); err != nil {
					return r, fmt.Errorf("%w: multiget value %d: %v", ErrCorrupt, i, err)
				}
				r.Found = append(r.Found, found)
				r.Multi = append(r.Multi, append([]byte(nil), v...))
			}
		}
	case StatusNotFound:
	case StatusNotLeader:
		hint, n := binary.Uvarint(rest)
		if n <= 0 {
			return r, fmt.Errorf("%w: leader hint", ErrCorrupt)
		}
		rest = rest[n:]
		r.Leader = hint
	case StatusErr:
		var m []byte
		if m, rest, err = takeBytes(rest); err != nil {
			return r, fmt.Errorf("%w: error message: %v", ErrCorrupt, err)
		}
		r.Err = string(m)
	default:
		return r, fmt.Errorf("%w: bad status %d", ErrCorrupt, b[n+1])
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return r, nil
}

func takeBytes(b []byte) (val, rest []byte, err error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, b, errors.New("missing length")
	}
	b = b[n:]
	if l > uint64(len(b)) {
		return nil, b, fmt.Errorf("truncated %d-byte field (%d left)", l, len(b))
	}
	return b[:l], b[l:], nil
}
