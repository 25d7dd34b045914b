package wireclient

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound reports an absent key from the typed helpers.
var ErrNotFound = errors.New("wireclient: key not found")

// notReadyBackoff is how long Call waits, once per call, when a member
// hints at itself: a freshly elected leader whose no-op or lease has not
// committed answers not-leader with its own ID for a few milliseconds.
const notReadyBackoff = 50 * time.Millisecond

// GroupClient talks to the members of one Raft group over pooled
// pipelined connections, following in-protocol StatusNotLeader hints to
// the leader. Writes (OpPut, OpDelete) are only re-sent when the failure
// provably happened before any bytes left (a dial error), so each write
// is applied at most once per call.
type GroupClient struct {
	pools []*Pool // index = node ID-1

	mu     sync.Mutex
	leader int // cached leader index
}

// NewGroupClient builds a client over the group's member binary
// addresses, indexed by node ID-1.
func NewGroupClient(addrs []string, cfg PoolConfig) *GroupClient {
	pools := make([]*Pool, len(addrs))
	for i, a := range addrs {
		pools[i] = NewPool(a, cfg)
	}
	return &GroupClient{pools: pools}
}

// Close tears down every member pool.
func (gc *GroupClient) Close() {
	for _, p := range gc.pools {
		p.Close()
	}
}

// Call routes r to the group's current leader: it starts at the cached
// leader, follows not-leader hints (bounded, loop-detected), and falls
// back to probing every member — the broadcast analog — before giving up.
func (gc *GroupClient) Call(r *Request) (Response, error) {
	members := gc.pools
	gc.mu.Lock()
	idx := gc.leader
	gc.mu.Unlock()
	leaderOnly := r.Op != OpPing && !(r.Op == OpGet && r.Flags&FlagLocal != 0)
	var lastErr error
	// failed: members that already failed this call; misdirected: members
	// that answered not-leader. Together they bound hint-following so two
	// members with mutually stale views cannot ping-pong the walk.
	failed := make(map[int]bool, len(members))
	misdirected := make(map[int]bool, len(members))
	backedOff := false
	for attempt := 0; attempt < len(members)+2; attempt++ {
		for n := 0; failed[idx%len(members)] && n < len(members); n++ {
			idx++
		}
		cur := idx % len(members)
		conn, err := gc.pools[cur].Get()
		if err != nil {
			// Dial failures never put bytes on the wire: safe to walk on
			// for every op, writes included.
			lastErr = err
			failed[cur] = true
			idx++
			continue
		}
		resp, err := conn.Call(r)
		if err != nil {
			if r.Op.isWrite() {
				// The request may have reached the server before the
				// connection died; re-sending could commit it twice.
				return Response{}, fmt.Errorf("wireclient: write outcome unknown: %w", err)
			}
			lastErr = err
			failed[cur] = true
			idx++
			continue
		}
		if resp.Status == StatusNotLeader {
			misdirected[cur] = true
			hint := int(resp.Leader)
			if hint >= 1 && hint <= len(members) && !failed[hint-1] && (!misdirected[hint-1] || hint-1 == cur) {
				if hint-1 == cur {
					// The member IS the leader but not ready yet; wait one
					// beat, once per call.
					if backedOff {
						idx++
						lastErr = fmt.Errorf("wireclient: no leader (hint %d)", hint)
						continue
					}
					backedOff = true
					time.Sleep(notReadyBackoff)
				}
				idx = hint - 1
			} else {
				idx++
			}
			lastErr = fmt.Errorf("wireclient: no leader (hint %d)", hint)
			continue
		}
		if leaderOnly {
			gc.mu.Lock()
			gc.leader = cur
			gc.mu.Unlock()
		}
		return resp, nil
	}
	return Response{}, lastErr
}

// Client issues requests against one or more binary Front addresses,
// spreading load round-robin. The typed helpers cover the common calls;
// Do exposes the raw pipelined path for load generators.
type Client struct {
	pools []*Pool
	next  atomic.Uint64
}

// NewClient builds a client over front addresses.
func NewClient(addrs []string, cfg PoolConfig) *Client {
	pools := make([]*Pool, len(addrs))
	for i, a := range addrs {
		pools[i] = NewPool(a, cfg)
	}
	return &Client{pools: pools}
}

// Close tears down every pool.
func (c *Client) Close() {
	for _, p := range c.pools {
		p.Close()
	}
}

func (c *Client) pool() *Pool {
	return c.pools[c.next.Add(1)%uint64(len(c.pools))]
}

// Do issues r asynchronously on a pooled connection.
func (c *Client) Do(r *Request, cb func(Response, error)) { c.pool().Do(r, cb) }

// Call issues r and waits.
func (c *Client) Call(r *Request) (Response, error) { return c.pool().Call(r) }

// Put replicates key=value.
func (c *Client) Put(key string, value []byte) error {
	resp, err := c.Call(&Request{Op: OpPut, Key: key, Value: value})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Get reads key (leader lease read).
func (c *Client) Get(key string) ([]byte, error) {
	resp, err := c.Call(&Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	if resp.Status == StatusNotFound {
		return nil, ErrNotFound
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// MultiGet reads keys positionally; absent keys come back nil with
// found=false.
func (c *Client) MultiGet(keys []string) (vals [][]byte, found []bool, err error) {
	resp, err := c.Call(&Request{Op: OpMultiGet, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, nil, err
	}
	return resp.Multi, resp.Found, nil
}

// Ping round-trips the protocol.
func (c *Client) Ping() error {
	resp, err := c.Call(&Request{Op: OpPing})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// respErr converts a non-OK/non-NotFound response into an error.
func respErr(r Response) error {
	switch r.Status {
	case StatusOK, StatusNotFound:
		return nil
	case StatusNotLeader:
		return fmt.Errorf("wireclient: not leader (hint %d)", r.Leader)
	default:
		return fmt.Errorf("wireclient: %s", r.Err)
	}
}
