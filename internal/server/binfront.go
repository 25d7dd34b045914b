package server

import (
	"errors"
	"fmt"
	"log"

	"dynatune/internal/shard"
	"dynatune/internal/wireclient"
)

// BinFront is the real-hardware counterpart of the shard layer's
// simulated router: a sharded listener that partitions the keyspace
// across Raft groups with an epoch-versioned shard.Router and forwards
// each request to the owning group's leader over pooled pipelined
// connections, following in-protocol leader hints (StatusNotLeader).
// Multigets partition per group, fan out, and reassemble positionally.
type BinFront struct {
	router *shard.Router
	groups []*wireclient.GroupClient
	bs     *binServer
}

// StartBinFront listens on listen and routes across groups; groups[g]
// lists group g's member *binary* addresses indexed by node ID-1.
func StartBinFront(listen string, groups [][]string, cfg wireclient.PoolConfig, lg *log.Logger) (*BinFront, error) {
	if len(groups) == 0 {
		return nil, errors.New("server: bin front needs at least one group")
	}
	f := &BinFront{
		router: shard.NewRouter(len(groups), 0),
		groups: make([]*wireclient.GroupClient, len(groups)),
	}
	for g, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("server: bin front group %d has no members", g)
		}
		f.groups[g] = wireclient.NewGroupClient(members, cfg)
	}
	if lg == nil {
		lg = log.New(log.Writer(), "binfront ", log.LstdFlags|log.Lmicroseconds)
	}
	bs, err := startBinServer(listen, f.handle, lg)
	if err != nil {
		for _, gc := range f.groups {
			gc.Close()
		}
		return nil, err
	}
	f.bs = bs
	return f, nil
}

// Addr returns the listen address.
func (f *BinFront) Addr() string { return f.bs.addr() }

// Router exposes the key→group mapping.
func (f *BinFront) Router() *shard.Router { return f.router }

// Close drains the listener and tears down the backend pools.
func (f *BinFront) Close() {
	f.bs.close()
	for _, gc := range f.groups {
		gc.Close()
	}
}

func (f *BinFront) handle(req wireclient.Request) wireclient.Response {
	switch req.Op {
	case wireclient.OpPing:
		return wireclient.Response{}

	case wireclient.OpPut, wireclient.OpGet, wireclient.OpDelete:
		if msg := badRequest(&req); msg != "" {
			return binErrf(msg)
		}
		g := f.router.Route(req.Key)
		resp, err := f.groups[g].Call(&req)
		if err != nil {
			return binErrf(fmt.Sprintf("group %d: %v", g, err))
		}
		// The front resolved the leader itself; a residual not-leader
		// (walk exhausted mid-election) surfaces as an error, never as a
		// redirect the client cannot act on — it holds front addresses,
		// not member addresses.
		if resp.Status == wireclient.StatusNotLeader {
			return binErrf(fmt.Sprintf("group %d: no leader", g))
		}
		return resp

	case wireclient.OpMultiGet:
		return f.multiGet(req)

	default:
		return binErrf(fmt.Sprintf("bad op %d", req.Op))
	}
}

// multiGet partitions keys by owning group, issues one backend multiget
// per group concurrently, and reassembles the results positionally.
func (f *BinFront) multiGet(req wireclient.Request) wireclient.Response {
	if len(req.Keys) == 0 {
		return binErrf("multiget needs keys")
	}
	if len(req.Keys) > maxMultiGetKeys {
		return binErrf(fmt.Sprintf("at most %d keys per multiget", maxMultiGetKeys))
	}
	type part struct {
		keys []string
		pos  []int
	}
	parts := map[shard.GroupID]*part{}
	for i, k := range req.Keys {
		if k == "" {
			return binErrf("empty key in multiget")
		}
		g := f.router.Route(k)
		p := parts[g]
		if p == nil {
			p = &part{}
			parts[g] = p
		}
		p.keys = append(p.keys, k)
		p.pos = append(p.pos, i)
	}
	resp := wireclient.Response{
		Multi: make([][]byte, len(req.Keys)),
		Found: make([]bool, len(req.Keys)),
	}
	type res struct {
		g    shard.GroupID
		resp wireclient.Response
		err  error
	}
	results := make(chan res, len(parts))
	for g, p := range parts {
		go func(g shard.GroupID, p *part) {
			r, err := f.groups[g].Call(&wireclient.Request{Op: wireclient.OpMultiGet, Keys: p.keys})
			results <- res{g: g, resp: r, err: err}
		}(g, p)
	}
	for range parts {
		r := <-results
		p := parts[r.g]
		if r.err != nil {
			return binErrf(fmt.Sprintf("group %d: %v", r.g, r.err))
		}
		if r.resp.Status != wireclient.StatusOK {
			return binErrf(fmt.Sprintf("group %d: %s: %s", r.g, r.resp.Status, r.resp.Err))
		}
		if len(r.resp.Multi) != len(p.keys) {
			return binErrf(fmt.Sprintf("group %d: %d results for %d keys", r.g, len(r.resp.Multi), len(p.keys)))
		}
		for i, pos := range p.pos {
			resp.Multi[pos] = r.resp.Multi[i]
			resp.Found[pos] = r.resp.Found[i]
		}
	}
	return resp
}
