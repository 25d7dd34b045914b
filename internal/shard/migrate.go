package shard

import (
	"bytes"
	"fmt"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/scenario"
)

// This file implements the live group-lifecycle migration: AddGroupLive
// boots a new Raft group on the shared engine and streams its keyspace
// share into it; RemoveGroupLive streams the retiring group's keys out to
// the survivors. Both follow the same drain → cutover → serve protocol:
//
//   - The routing ring flips (a new epoch) the moment the move starts.
//     Writes to keys whose owner changes are FENCED — parked by the load
//     generator, waited out by Put — until the drain completes, so a
//     moved key can never receive a client write that the copy stream
//     would overwrite (zero lost or double-applied writes, witnessed by
//     the kv idempotence table exactly as in Put).
//   - Reads dual-read until cutover: a miss at the key's current owner
//     falls back to its previous-epoch owner, so no read misses a key
//     that committed before the move. (After cutover the destination is
//     authoritative — see dualReadActive.)
//   - The bulk phase (snapshot-ship) exports the moved span from each
//     authoritative source leader's store as byte-capped chunks
//     (kv.SpanExport) and replicates each chunk as a single
//     OpInstallSpan command at its destination: O(chunks) consensus
//     rounds for the resident span instead of O(keys).
//   - The drain itself is a convergence loop covering the delta the bulk
//     export missed (pre-flip writes that were still queued at a source
//     leader when the span was exported): scan the source leader stores
//     in sorted-key order (kv.SortedKeys — map order must never leak
//     into the log), batch-propose the keys whose destination copy is
//     missing or stale, wait for the batch to apply, re-scan. A scan
//     that finds nothing left to copy is the cutover: the fence lifts and
//     parked writes flush to the new owners.
//   - Serve/cleanup: stray copies at the old owners are deleted (add), or
//     the retired group's nodes are paused for decommission (remove).
//
// Determinism: the migration draws no randomness of its own — the booted
// group's timers come from the shared engine (seeded at construction) and
// the stream order is the sorted key order — so a migration is a pure
// function of the engine seed and the epoch at which it fires, and
// results stay byte-identical for any DYNATUNE_TRIAL_WORKERS.

// migrClientID marks migration traffic (copy streams and cleanup deletes)
// in the kv idempotence table, distinct from the load generator's client 1
// and direct-Put client 2.
const migrClientID = 3

// Migration phases.
const (
	phasePrepare = iota // new group booting, waiting for its first leader
	phaseBulk           // snapshot-shipping the moved span as OpInstallSpan chunks
	phaseDrain          // streaming the remaining delta to its new owners
	phaseCleanup        // fence lifted; removing stale copies at the sources
)

const (
	// migrTick is the state machine's poll cadence.
	migrTick = 5 * time.Millisecond
	// migrBatch caps one streamed propose (one Ready-loop flush of copies).
	migrBatch = 256
	// migrWait bounds waiting for one streamed batch to apply before the
	// next convergence scan re-copies whatever is still missing (covers a
	// destination leader dying with the batch unacknowledged).
	migrWait = 2 * time.Second
	// migrSpanBytes caps one OpInstallSpan chunk's encoded payload in the
	// bulk phase. Each chunk is one replicated command, so this is the
	// bulk phase's consensus-round granularity.
	migrSpanBytes = 64 << 10
	// DefaultCutoverDeadline bounds the move's cutover (prepare + drain)
	// when the caller passes no deadline: a move that cannot flip serving
	// to the new topology in time aborts and rolls the ring back.
	DefaultCutoverDeadline = 30 * time.Second
)

type copyCmd struct {
	dst GroupID
	cmd kv.Command
}

type migration struct {
	s        *Cluster
	kind     string // "add-group" | "remove-group"
	target   GroupID
	deadline time.Duration // absolute virtual-time cutover deadline
	phase    int

	queue []copyCmd // commands of the current streaming round
	// waits maps destination → the last migration seq proposed to it and
	// not yet confirmed applied; waitBy bounds the confirmation wait.
	waits  map[GroupID]uint64
	waitBy time.Duration

	// barriers maps each source group to a no-op barrier seq proposed at
	// flip time through the same LeaderProposeBatch path client traffic
	// uses. A pre-flip client write may still sit in the source leader's
	// CPU queue when the ring flips; the barrier queues behind it (FIFO),
	// so once the barrier has applied, every pre-flip write has applied
	// too and the convergence scans have seen it. Cutover is gated on all
	// barriers clearing — without this, cleanup could delete a late
	// pre-flip commit the stream never copied.
	barriers  map[GroupID]uint64
	barrierBy time.Duration // re-propose outstanding barriers after this

	moved    map[string]bool // distinct keys streamed so far
	rounds   int             // convergence scans run
	scanned  bool            // first scan done (TotalKeys fixed)
	bulkDone bool            // bulk span export queued (it runs once)
	// proposeErrs counts migration proposes that failed — a leaderless
	// destination or an error surfaced by the propose callback. Copied to
	// stats at finish/abort; callbacks landing after that mutate only the
	// detached migration.
	proposeErrs int
	stats       scenario.RebalanceStats
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// AddGroupLive boots one more Raft group on the shared engine and starts
// the drain → cutover → serve migration moving its consistent-hash share
// (≈1/(G+1) of the keyspace) into it, while the deployment keeps serving.
// The routing epoch flips immediately; writes to moved keys are fenced
// until the drain converges. deadline bounds the cutover (prepare +
// drain): a move that cannot flip serving in time — no leader in the new
// group, a drain that will not converge — aborts and rolls the ring
// back; <= 0 takes DefaultCutoverDeadline. Only one migration may run at
// a time.
func (s *Cluster) AddGroupLive(deadline time.Duration) error {
	if s.migr != nil {
		s.recordSkipped("add-group", s.router.Groups())
		return fmt.Errorf("shard: a %s migration is already in progress", s.migr.kind)
	}
	g := s.router.AddGroup()
	// The new group attaches to the consolidation fabric under a fresh
	// UID: envelopes still in flight toward a previously retired tenant of
	// this slot keep addressing the old (paused) group, never the new one.
	c := s.newGroup()
	if int(g) < len(s.groups) {
		s.groups[g] = c // reuse a slot a previous RemoveGroupLive retired
		s.retired[g] = false
	} else {
		s.groups = append(s.groups, c)
		s.retired = append(s.retired, false)
	}
	for _, fn := range s.onGroupAdded {
		fn(g) // observers wire SetOnApply before the group starts
	}
	c.Start()
	now := s.eng.Now()
	if deadline <= 0 {
		deadline = DefaultCutoverDeadline
	}
	s.migr = &migration{
		s: s, kind: "add-group", target: g, deadline: now + deadline,
		phase:    phasePrepare,
		waits:    map[GroupID]uint64{},
		barriers: map[GroupID]uint64{},
		moved:    map[string]bool{},
		stats: scenario.RebalanceStats{
			Kind: "add-group", Group: int(g), Epoch: s.router.Epoch(),
			StartMs: ms(now),
		},
	}
	s.migr.proposeBarriers(now)
	s.eng.After(migrTick, s.tickMigration)
	return nil
}

// RemoveGroupLive retires the highest-numbered Raft group: the routing
// epoch flips immediately (its keys are fenced and re-owned by the
// survivors), the retiring group's store is drained into the new owners,
// and once the drain converges its nodes are paused for decommission.
// deadline bounds the cutover as in AddGroupLive (an abort restores the
// ring and the group keeps serving); <= 0 takes DefaultCutoverDeadline.
func (s *Cluster) RemoveGroupLive(deadline time.Duration) error {
	if s.migr != nil {
		s.recordSkipped("remove-group", s.router.Groups()-1)
		return fmt.Errorf("shard: a %s migration is already in progress", s.migr.kind)
	}
	if s.router.Groups() <= 1 {
		return fmt.Errorf("shard: cannot remove the last group")
	}
	g := GroupID(s.router.Groups() - 1)
	s.router.RemoveGroup(g)
	now := s.eng.Now()
	if deadline <= 0 {
		deadline = DefaultCutoverDeadline
	}
	s.migr = &migration{
		s: s, kind: "remove-group", target: g, deadline: now + deadline,
		phase:    phaseBulk, // nothing to boot: ship right away
		waits:    map[GroupID]uint64{},
		barriers: map[GroupID]uint64{},
		moved:    map[string]bool{},
		stats: scenario.RebalanceStats{
			Kind: "remove-group", Group: int(g), Epoch: s.router.Epoch(),
			StartMs: ms(now),
		},
	}
	s.migr.proposeBarriers(now)
	s.eng.After(migrTick, s.tickMigration)
	return nil
}

// sourceGroups lists the groups whose stores the migration drains: for an
// add, every serving group except the new one; for a remove, the retiring
// group itself.
func (m *migration) sourceGroups() []GroupID {
	if m.kind == "remove-group" {
		return []GroupID{m.target}
	}
	out := make([]GroupID, 0, m.s.router.Groups()-1)
	for g := 0; g < m.s.router.Groups(); g++ {
		if GroupID(g) != m.target {
			out = append(out, GroupID(g))
		}
	}
	return out
}

// proposeBarrier (re)proposes one flip-time barrier no-op to group g and
// records the seq barriersClear must observe applied. An unproposable
// barrier (no leader right now) still records its seq: LastSeq can never
// reach it, so the retry path re-proposes.
func (m *migration) proposeBarrier(g GroupID) {
	m.s.migrSeq++
	seq := m.s.migrSeq
	data := kv.Encode(kv.Command{Op: kv.OpNoop, Client: migrClientID, Seq: seq})
	m.stats.ProposeOps++
	if !m.s.groups[g].LeaderProposeBatch([][]byte{data}, func(_, _ uint64, err error) {
		if err != nil {
			m.proposeErrs++
		}
	}) {
		m.proposeErrs++
	}
	m.barriers[g] = seq
}

// proposeBarriers proposes the flip-time barrier to every source group. A
// barrier lost to a leader change is retried by barriersClear until it
// lands.
func (m *migration) proposeBarriers(now time.Duration) {
	for _, g := range m.sourceGroups() {
		m.proposeBarrier(g)
	}
	m.barrierBy = now + migrWait
}

// barriersClear reports whether every source group has applied its
// flip-time barrier, re-proposing outstanding ones on timeout.
func (m *migration) barriersClear(now time.Duration) bool {
	for g := 0; g < len(m.s.groups); g++ {
		seq, ok := m.barriers[GroupID(g)]
		if !ok {
			continue
		}
		if st, ok2 := m.s.leaderStore(GroupID(g)); ok2 && st.LastSeq(migrClientID) >= seq {
			delete(m.barriers, GroupID(g))
		}
	}
	if len(m.barriers) == 0 {
		return true
	}
	if now >= m.barrierBy {
		for g := 0; g < len(m.s.groups); g++ {
			if _, ok := m.barriers[GroupID(g)]; ok {
				m.proposeBarrier(GroupID(g))
			}
		}
		m.barrierBy = now + migrWait
	}
	return false
}

// recordSkipped logs a move that could not start because another
// migration was still draining — silently dropping it would leave the
// report claiming a topology the run never reached.
func (s *Cluster) recordSkipped(kind string, wouldBe int) {
	s.rebalances = append(s.rebalances, scenario.RebalanceStats{
		Kind: kind, Group: wouldBe, Epoch: s.router.Epoch(),
		StartMs: ms(s.eng.Now()), DoneMs: ms(s.eng.Now()),
		Skipped: true,
	})
}

// Rebalancing reports whether a group migration is in flight.
func (s *Cluster) Rebalancing() bool { return s.migr != nil }

// Rebalances returns the completed (or aborted) moves, in order.
func (s *Cluster) Rebalances() []scenario.RebalanceStats {
	return append([]scenario.RebalanceStats(nil), s.rebalances...)
}

// dualReadActive reports whether reads should fall back to the previous
// epoch's owner on a miss. Only before cutover: the fence guarantees no
// moved key has been rewritten, so the source copy is always current.
// After cutover the destination is authoritative and a fallback could
// serve a stale source copy awaiting cleanup — a miss there (e.g. the
// destination is momentarily leaderless) must stay a miss.
func (s *Cluster) dualReadActive() bool {
	m := s.migr
	return m != nil && m.phase <= phaseDrain
}

// Fenced reports whether writes to key are currently held back by a
// migration: the key's owner is changing and the copy stream has not
// converged yet. Writers park (LoadGen) or wait (Put) until the fence
// lifts at cutover.
func (s *Cluster) Fenced(key string) bool {
	m := s.migr
	if m == nil || m.phase > phaseDrain {
		return false
	}
	if m.kind == "add-group" {
		return s.router.Route(key) == m.target
	}
	pg, ok := s.router.RoutePrev(key)
	return ok && pg == m.target
}

// tickMigration advances the migration state machine one step and
// reschedules itself while a migration is live.
func (s *Cluster) tickMigration() {
	m := s.migr
	if m == nil {
		return
	}
	now := s.eng.Now()
	switch m.phase {
	case phasePrepare:
		if now >= m.deadline {
			m.abort(now)
		} else if s.groups[m.target].Leader() != nil {
			m.phase = phaseBulk
		}
	case phaseBulk:
		// The bulk phase sits inside the cutover window like the drain: a
		// span ship that cannot finish in time aborts the move.
		if now >= m.deadline {
			m.abort(now)
		} else {
			m.bulkTick(now)
		}
	case phaseDrain:
		// The deadline bounds the cutover (prepare + drain); a drain that
		// cannot converge in time — a source stuck leaderless, a
		// destination that keeps losing its batches — aborts rather than
		// fencing writers forever. Cleanup (post-cutover) is unbounded:
		// the flip already happened and the scans converge on their own.
		if now >= m.deadline {
			m.abort(now)
		} else {
			m.drainTick(now)
		}
	case phaseCleanup:
		m.cleanupTick(now)
	}
	if s.migr != nil {
		s.eng.After(migrTick, s.tickMigration)
	}
}

// abort rolls back a move that missed its cutover deadline: the ring
// reverts (another epoch bump, identical to the pre-move ring — the ring
// is a pure function of the group count), the fence lifts, and the move
// is recorded as aborted. Nothing was deleted at the sources (deletes are
// cleanup, which only runs after cutover), so the original owners still
// hold every key; copies already streamed are retired with the new group
// (add) or sit unrouted at the survivors until a later move overwrites
// them (remove).
func (m *migration) abort(now time.Duration) {
	s := m.s
	if m.kind == "add-group" {
		s.router.RemoveGroup(m.target)
		s.pauseGroup(m.target)
	} else {
		// Restore the retiring group's ring points; its cluster never
		// stopped serving (decommission happens at finish, not here).
		s.router.AddGroup()
	}
	m.stats.Aborted = true
	// Record what the partial drain did stream: those copies survive as
	// unrouted strays (see above) until a later move's cleanup.
	m.stats.MovedKeys = len(m.moved)
	m.stats.DrainRounds = m.rounds
	m.stats.ProposeErrors = m.proposeErrs
	m.stats.DoneMs = ms(now)
	s.rebalances = append(s.rebalances, m.stats)
	s.migr = nil
}

// confirmWaits checks outstanding streamed batches against the
// destinations' idempotence tables. It returns true when the caller
// should keep waiting.
func (m *migration) confirmWaits(now time.Duration) bool {
	if len(m.waits) == 0 {
		return false
	}
	if now >= m.waitBy {
		// Waited long enough (a destination leader probably died with the
		// batch): drop the waits — the next convergence scan re-copies
		// whatever is actually missing.
		m.waits = map[GroupID]uint64{}
		return false
	}
	for g := 0; g < len(m.s.groups); g++ {
		seq, ok := m.waits[GroupID(g)]
		if !ok {
			continue
		}
		if lead := m.s.groups[g].Leader(); lead != nil &&
			m.s.groups[g].Store(lead.ID()).LastSeq(migrClientID) >= seq {
			delete(m.waits, GroupID(g))
		}
	}
	return len(m.waits) > 0
}

// bulkTick drives the snapshot-ship phase: one span export per
// (source, destination) pair, streamed as OpInstallSpan chunks through
// the same batched propose + confirm path key copies use. When the last
// chunk confirms, the drain covers only the delta. A chunk batch lost to
// a destination leader change is not re-shipped: the wait times out and
// the drain's per-key convergence scan re-copies whatever is actually
// missing — correctness never depends on the bulk phase completing.
func (m *migration) bulkTick(now time.Duration) {
	if m.confirmWaits(now) {
		return
	}
	if len(m.queue) > 0 {
		m.stream(now)
		return
	}
	if m.bulkDone {
		m.phase = phaseDrain
		return
	}
	if !m.scanBulk() {
		return // a needed leader is missing; retry next tick
	}
	m.bulkDone = true
	if len(m.queue) == 0 {
		m.phase = phaseDrain // nothing resident in the moved span
	}
}

// scanBulk exports the moved span from every authoritative source as
// byte-capped OpInstallSpan chunks and queues them for streaming. It
// runs at most once per migration; ok is false while a needed leader is
// missing. The export pairs each source with the destination(s) the ring
// assigns: for an add every source feeds the new group, for a remove the
// retiring group feeds each survivor.
func (m *migration) scanBulk() (ok bool) {
	s := m.s
	type job struct{ src, dst GroupID }
	var jobs []job
	if m.kind == "add-group" {
		for g := 0; g < s.router.Groups(); g++ {
			if GroupID(g) != m.target {
				jobs = append(jobs, job{GroupID(g), m.target})
			}
		}
	} else {
		for g := 0; g < s.router.Groups(); g++ {
			jobs = append(jobs, job{m.target, GroupID(g)})
		}
	}
	// Check every needed leader before exporting anything, so a half-done
	// pass is never queued twice.
	for _, j := range jobs {
		if _, ok := s.leaderStore(j.src); !ok {
			return false
		}
		if _, ok := s.leaderStore(j.dst); !ok {
			return false
		}
	}
	// Fix the resident-keyspace denominator (MovedFraction) before any
	// chunk lands: once shipped copies exist at the destinations, the
	// drain scans' totals would double-count them.
	if !m.scanned {
		total := 0
		if m.kind == "add-group" {
			for g := 0; g < s.router.Groups(); g++ {
				if GroupID(g) == m.target {
					continue
				}
				st, _ := s.leaderStore(GroupID(g))
				total += st.Len()
			}
		} else {
			st, _ := s.leaderStore(m.target)
			total = st.Len()
			for g := 0; g < s.router.Groups(); g++ {
				sg, _ := s.leaderStore(GroupID(g))
				total += sg.Len()
			}
		}
		m.scanned = true
		m.stats.TotalKeys = total
	}
	for _, j := range jobs {
		src, _ := s.leaderStore(j.src)
		// The span is the keys this source authoritatively hands to this
		// destination: owned by dst under the new ring, owned by src under
		// the previous one (strays at non-authoritative holders are
		// cleanup's problem, exactly as in the drain scan).
		chunks, keys := src.SpanExport(func(k string) bool {
			if s.router.Route(k) != j.dst {
				return false
			}
			pg, moved := s.router.RoutePrev(k)
			return moved && pg == j.src
		}, migrSpanBytes)
		for _, k := range keys {
			m.moved[k] = true
		}
		for _, c := range chunks {
			m.queue = append(m.queue, copyCmd{dst: j.dst, cmd: kv.Command{
				Op: kv.OpInstallSpan, Client: migrClientID, Value: c,
			}})
		}
		m.stats.BulkChunks += len(chunks)
	}
	return true
}

func (m *migration) drainTick(now time.Duration) {
	if m.confirmWaits(now) {
		return
	}
	if len(m.queue) > 0 {
		m.stream(now)
		return
	}
	// The flip-time barriers must clear before cutover: only then is it
	// certain no pre-flip client write is still queued at a source leader
	// where the scans (and later the cleanup deletes) would miss it.
	barriered := m.barriersClear(now)
	done, ok := m.scanDrain()
	if !ok {
		return // a needed leader is missing; retry next tick
	}
	if done && barriered {
		m.cutover(now)
	}
}

// scanDrain runs one convergence pass: it fills m.queue with the copy
// commands still needed and reports done when nothing was left to copy.
// ok is false when a source (or the destination, for value comparison)
// had no leader, in which case the pass is inconclusive.
func (m *migration) scanDrain() (done, ok bool) {
	s := m.s
	if m.kind == "add-group" {
		dstStore, ok := s.leaderStore(m.target)
		if !ok {
			return false, false
		}
		total := 0
		for g := 0; g < s.router.Groups(); g++ {
			if GroupID(g) == m.target {
				continue
			}
			src, ok := s.leaderStore(GroupID(g))
			if !ok {
				return false, false
			}
			total += src.Len()
			for _, k := range src.SortedKeys() {
				if s.router.Route(k) != m.target {
					continue
				}
				// Stream only from the key's authoritative previous-epoch
				// owner. A stray duplicate at another group (left by an
				// aborted earlier move) may hold a different value; letting
				// two sources both feed the destination would make the
				// convergence scans oscillate between the copies forever.
				// Cleanup deletes the stray later.
				if pg, ok := s.router.RoutePrev(k); !ok || pg != GroupID(g) {
					continue
				}
				m.enqueueCopy(src, dstStore, m.target, k)
			}
		}
		m.noteScan(total)
		return len(m.queue) == 0, true
	}
	// remove-group: every key the retiring group owns moves to its new
	// owner among the survivors (strays it merely holds are dropped with
	// the group).
	src, okSrc := s.leaderStore(m.target)
	if !okSrc {
		return false, false
	}
	total := src.Len()
	for g := 0; g < s.router.Groups(); g++ {
		st, ok := s.leaderStore(GroupID(g))
		if !ok {
			return false, false
		}
		total += st.Len()
	}
	dsts := make(map[GroupID]*kv.Store, s.router.Groups())
	for _, k := range src.SortedKeys() {
		if pg, ok := s.router.RoutePrev(k); !ok || pg != m.target {
			continue
		}
		dst := s.router.Route(k)
		dstStore, ok := dsts[dst]
		if !ok {
			dstStore, ok = s.leaderStore(dst)
			if !ok {
				return false, false
			}
			dsts[dst] = dstStore
		}
		m.enqueueCopy(src, dstStore, dst, k)
	}
	m.noteScan(total)
	return len(m.queue) == 0, true
}

// enqueueCopy queues key for streaming unless the destination already
// holds an identical value (a previous round's copy landed).
func (m *migration) enqueueCopy(src, dst *kv.Store, dstG GroupID, k string) {
	v, ok := src.Get(k)
	if !ok {
		return // raced away between SortedKeys and Get — nothing to move
	}
	m.moved[k] = true
	if dv, have := dst.Get(k); have && bytes.Equal(dv, v) {
		return
	}
	m.queue = append(m.queue, copyCmd{dst: dstG, cmd: kv.Command{
		Op: kv.OpPut, Client: migrClientID, Key: k, Value: v,
	}})
}

// noteScan records one convergence pass; the first pass fixes the
// resident-keyspace denominator of MovedFraction.
func (m *migration) noteScan(total int) {
	m.rounds++
	if !m.scanned {
		m.scanned = true
		m.stats.TotalKeys = total
	}
}

// stream proposes up to migrBatch queued copies, batched per destination
// through the same LeaderProposeBatch path client traffic pays, and arms
// the confirmation wait on each destination's idempotence table.
func (m *migration) stream(now time.Duration) {
	n := len(m.queue)
	if n > migrBatch {
		n = migrBatch
	}
	chunk := m.queue[:n]
	m.queue = m.queue[n:]

	var order []GroupID
	byDst := map[GroupID][][]byte{}
	lastSeq := map[GroupID]uint64{}
	for _, cc := range chunk {
		m.s.migrSeq++
		cmd := cc.cmd
		cmd.Seq = m.s.migrSeq
		if _, seen := byDst[cc.dst]; !seen {
			order = append(order, cc.dst)
		}
		byDst[cc.dst] = append(byDst[cc.dst], kv.Encode(cmd))
		lastSeq[cc.dst] = cmd.Seq
	}
	for _, dst := range order {
		// A destination without a leader (or a propose that errors) is not
		// retried here: its seqs burn, the wait times out, and the next
		// convergence scan re-copies the still-missing keys — but the
		// failure is counted, never swallowed (RebalanceStats.ProposeErrors).
		m.stats.ProposeOps += len(byDst[dst])
		if !m.s.groups[dst].LeaderProposeBatch(byDst[dst], func(_, _ uint64, err error) {
			if err != nil {
				m.proposeErrs++
			}
		}) {
			m.proposeErrs++
		}
		m.waits[dst] = lastSeq[dst]
	}
	m.waitBy = now + migrWait
}

// cutover is the serve point: the drain has converged, so the fence lifts
// (parked writes flush to the new owners on the generator's next tick)
// and the cleanup of stale source copies begins.
func (m *migration) cutover(now time.Duration) {
	m.stats.CutoverMs = ms(now)
	m.stats.MovedKeys = len(m.moved)
	m.stats.DrainRounds = m.rounds
	if m.stats.TotalKeys > 0 {
		m.stats.MovedFraction = float64(len(m.moved)) / float64(m.stats.TotalKeys)
	}
	m.phase = phaseCleanup
}

func (m *migration) cleanupTick(now time.Duration) {
	if m.confirmWaits(now) {
		return
	}
	if len(m.queue) > 0 {
		m.stream(now)
		return
	}
	if m.kind == "remove-group" {
		// The retiring group's copies leave with the group itself.
		m.finish(now)
		return
	}
	// add-group: delete every key a serving group still holds but no
	// longer owns (the moved keys' source copies). The stale keys retire
	// as OpDeleteSpan chunks, so the cleanup stays O(chunks) like the
	// bulk phase.
	clean := true
	for g := 0; g < m.s.router.Groups(); g++ {
		if GroupID(g) == m.target {
			continue
		}
		st, ok := m.s.leaderStore(GroupID(g))
		if !ok {
			return // retry next tick
		}
		var stale []string
		for _, k := range st.SortedKeys() {
			if m.s.router.Route(k) != GroupID(g) {
				clean = false
				stale = append(stale, k)
			}
		}
		for _, chunk := range spanDeleteChunks(stale, migrSpanBytes) {
			m.queue = append(m.queue, copyCmd{dst: GroupID(g), cmd: kv.Command{
				Op: kv.OpDeleteSpan, Client: migrClientID, Value: chunk,
			}})
		}
	}
	if clean {
		m.finish(now)
	}
}

// spanDeleteChunks packs keys into byte-capped OpDeleteSpan payloads
// (span chunks with empty values), mirroring SpanExport's chunking.
func spanDeleteChunks(keys []string, maxBytes int) [][]byte {
	var chunks [][]byte
	var pairs []kv.Pair
	cur := 4
	for _, k := range keys {
		cost := 8 + len(k)
		if len(pairs) > 0 && cur+cost > maxBytes {
			chunks = append(chunks, kv.EncodeSpan(pairs))
			pairs, cur = nil, 4
		}
		pairs = append(pairs, kv.Pair{Key: k})
		cur += cost
	}
	if len(pairs) > 0 {
		chunks = append(chunks, kv.EncodeSpan(pairs))
	}
	return chunks
}

// finish retires the migration: decommission for remove, stats recorded,
// dual-read fallback off.
func (m *migration) finish(now time.Duration) {
	s := m.s
	if m.kind == "remove-group" {
		s.pauseGroup(m.target)
	}
	m.stats.ProposeErrors = m.proposeErrs
	m.stats.DoneMs = ms(now)
	s.rebalances = append(s.rebalances, m.stats)
	s.migr = nil
}

// leaderStore returns group g's leader-local store, or ok=false while the
// group has no leader.
func (s *Cluster) leaderStore(g GroupID) (*kv.Store, bool) {
	lead := s.groups[g].Leader()
	if lead == nil {
		return nil, false
	}
	return s.groups[g].Store(lead.ID()), true
}

// pauseGroup freezes every node of a retired group — the decommission
// model: the processes stop doing work but the slot remains reusable by a
// later AddGroupLive. The slot is marked retired so leader scans skip it;
// on the consolidated fabric the frozen runtimes also stop contributing
// timers (their table entries die as spurious wakeups) and drop any
// envelope payloads still in flight to them.
func (s *Cluster) pauseGroup(g GroupID) {
	c := s.groups[g]
	for i := 1; i <= s.opts.NodesPerGroup; i++ {
		if !c.Paused(raft.ID(i)) {
			c.Pause(raft.ID(i))
		}
	}
	s.retired[g] = true
}
