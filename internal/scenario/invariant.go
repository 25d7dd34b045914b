package scenario

import (
	"fmt"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/sim"
)

// The standing invariant suite for sharded throughput runs — the verdict
// layer the chaos-storm search drives. Five detectors:
//
//   - durability: every acked write is readable after heal, with a value
//     sequence at least as new as the ack (a stale survivor here is also
//     the observable of a double-commit across partitions — two leaders
//     both acking, one side's history discarded).
//   - double-apply: no replica state machine suppressed a duplicate
//     command (the store's idempotence table is the witness: a dupe means
//     an entry was delivered twice past the applied-index guard).
//   - stale-read: reads through the router's MultiGet path — including
//     the dual-read window of a live migration — never observe a value
//     older than the highest acked write for the key.
//   - unavailability: no serving group stays leaderless longer than the
//     configured bound.
//   - convergence: after heal plus settle, every group's live replicas
//     hold identical stores.

// Violation is one invariant trip.
type Violation struct {
	// Invariant names the detector ("durability", "double-apply",
	// "stale-read", "unavailability", "convergence").
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// InvariantReport is the suite's verdict for one run.
type InvariantReport struct {
	// Checked lists the detectors that ran.
	Checked []string `json:"checked"`
	// AckedWrites is the number of distinct keys with at least one acked
	// write (the durability sweep's coverage); Probes counts mid-run
	// stale-read probes issued.
	AckedWrites int `json:"acked_writes"`
	Probes      int `json:"probes"`
	// MaxUnavailMs is the longest observed continuous leaderless span of
	// any serving group.
	MaxUnavailMs float64 `json:"max_unavail_ms"`
	// Violations is empty when every invariant held. Suppressed counts
	// trips beyond the per-run cap (the first maxViolations carry detail).
	Violations []Violation `json:"violations,omitempty"`
	Suppressed int         `json:"suppressed,omitempty"`
}

// OK reports whether every invariant held.
func (r *InvariantReport) OK() bool { return r == nil || len(r.Violations) == 0 }

// invariantNames is the suite's fixed detector list.
var invariantNames = []string{"durability", "double-apply", "stale-read", "unavailability", "convergence"}

// maxViolations caps the detail a single run accumulates: a badly broken
// run trips per-key, and thousands of identical lines help nobody.
const maxViolations = 16

// unavailScanEvery is the leaderless-span sampling period. Spans shorter
// than one tick can hide; the suite's bounds are orders of magnitude
// larger, so the quantization error is noise.
const unavailScanEvery = 50 * time.Millisecond

// confirmAfter is the stale-read re-check delay: a probe landing in the
// hairline window where a fresh leader has committed but not yet applied
// an entry would otherwise cry wolf. Real staleness (a migration serving
// from the wrong side, a lost write) persists; the apply gap does not.
const confirmAfter = 500 * time.Millisecond

// invariantTarget is the probe surface the checker consumes — the subset
// of MultiCluster it needs. Negative tests substitute a fake target with
// deliberately-broken stores.
type invariantTarget interface {
	Groups() int
	GroupLeader(g int) raft.ID
	GroupStores(g int) []StoreProbe
	ProbeRead(key string) (v []byte, found, servable bool)
}

// invariantChecker runs the suite over one sharded ramp. All sampling
// draws from the engine's seeded RNG and all state mutation happens on
// engine events, so the verdict is a pure function of the run's seed.
type invariantChecker struct {
	cfg     Invariants
	t       invariantTarget
	eng     *sim.Engine
	stopped bool

	// acked maps key → highest acked (leader-applied) client sequence;
	// ackedKeys is the same set in first-ack order — the deterministic
	// sampling pool (map iteration order must never reach the RNG).
	acked     map[string]uint64
	ackedKeys []string

	probes int

	// downSince tracks, per serving slot, when a leaderless span began
	// (-1 = group currently has a leader).
	downSince    []time.Duration
	maxDown      time.Duration
	maxDownGroup int

	violations []Violation
	suppressed int
}

func newInvariantChecker(cfg Invariants, t invariantTarget, eng *sim.Engine) *invariantChecker {
	return &invariantChecker{
		cfg:   cfg.withDefaults(),
		t:     t,
		eng:   eng,
		acked: make(map[string]uint64),
	}
}

// onComplete is the load generator's ack feed.
func (c *invariantChecker) onComplete(key string, seq uint64) {
	if _, ok := c.acked[key]; !ok {
		c.ackedKeys = append(c.ackedKeys, key)
	}
	if seq > c.acked[key] {
		c.acked[key] = seq
	}
}

// arm starts the periodic probes; they self-reschedule until stop.
func (c *invariantChecker) arm() {
	var scan func()
	scan = func() {
		if c.stopped {
			return
		}
		c.scanUnavail()
		c.eng.After(unavailScanEvery, scan)
	}
	c.eng.After(unavailScanEvery, scan)

	var probe func()
	probe = func() {
		if c.stopped {
			return
		}
		c.probeStale()
		c.eng.After(c.cfg.Every.D(), probe)
	}
	c.eng.After(c.cfg.Every.D(), probe)
}

// stop halts the periodic probes (the caller then runs the settle window
// and asks for the final report).
func (c *invariantChecker) stop() { c.stopped = true }

func (c *invariantChecker) violate(invariant, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.suppressed++
		return
	}
	c.violations = append(c.violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// scanUnavail samples per-group leader presence and tracks the longest
// continuous leaderless span.
func (c *invariantChecker) scanUnavail() {
	now := c.eng.Now()
	groups := c.t.Groups()
	for len(c.downSince) < groups {
		c.downSince = append(c.downSince, -1)
	}
	for g := range c.downSince {
		if g >= groups {
			// The slot retired mid-span (remove-group): leaderlessness is
			// the lifecycle working as designed, not unavailability.
			c.downSince[g] = -1
			continue
		}
		down := c.t.GroupLeader(g) == 0
		switch {
		case down && c.downSince[g] < 0:
			c.downSince[g] = now
		case !down && c.downSince[g] >= 0:
			c.noteSpan(g, now-c.downSince[g])
			c.downSince[g] = -1
		}
	}
}

func (c *invariantChecker) noteSpan(g int, span time.Duration) {
	if span > c.maxDown {
		c.maxDown, c.maxDownGroup = span, g
	}
}

// probeStale samples acked keys and reads them through the router path.
func (c *invariantChecker) probeStale() {
	if len(c.ackedKeys) == 0 {
		return
	}
	rng := c.eng.Rand()
	n := c.cfg.ProbeKeys
	if n > len(c.ackedKeys) {
		n = len(c.ackedKeys)
	}
	for i := 0; i < n; i++ {
		key := c.ackedKeys[rng.Intn(len(c.ackedKeys))]
		c.probes++
		if stale, _ := c.keyStale(key, c.acked[key]); stale {
			// Re-check after the apply-gap grace before declaring: the ack
			// point is the leader's apply, and a just-elected leader may
			// trail it by an apply event.
			key, want := key, c.acked[key]
			c.eng.After(confirmAfter, func() {
				if stale, detail := c.keyStale(key, want); stale {
					c.violate("stale-read", "%s (confirmed after %v)", detail, confirmAfter)
				}
			})
		}
	}
}

// keyStale reads key through the router and reports whether the result is
// older than the acked sequence want. Unservable reads (every responsible
// group mid-election) and non-sequence values (foreign writes) are not
// stale — there is nothing trustworthy to compare.
func (c *invariantChecker) keyStale(key string, want uint64) (bool, string) {
	v, found, servable := c.t.ProbeRead(key)
	if !servable {
		return false, ""
	}
	if !found {
		return true, fmt.Sprintf("acked key %q (seq %d) invisible through the read path", key, want)
	}
	got, ok := kv.SeqOf(v)
	if !ok {
		return false, ""
	}
	if got < want {
		return true, fmt.Sprintf("key %q read seq %d, acked seq %d", key, got, want)
	}
	return false, ""
}

// report closes the run: final unavailability accounting, the durability
// sweep over every acked key, and the double-apply and convergence checks
// over every serving group's live replicas. Call after stop and the
// post-heal settle window.
func (c *invariantChecker) report() *InvariantReport {
	now := c.eng.Now()
	groups := c.t.Groups()
	for g, since := range c.downSince {
		if since >= 0 && g < groups {
			c.noteSpan(g, now-since)
		}
	}
	if c.maxDown > c.cfg.MaxUnavail.D() {
		c.violate("unavailability", "group %d leaderless for %v (bound %v)",
			c.maxDownGroup+1, c.maxDown, c.cfg.MaxUnavail.D())
	}

	// Durability: every acked write must be readable post-heal, at least
	// as new as its ack. ackedKeys is first-ack ordered — deterministic.
	for _, key := range c.ackedKeys {
		want := c.acked[key]
		v, found, servable := c.t.ProbeRead(key)
		switch {
		case !servable:
			c.violate("durability", "acked key %q unreadable post-heal (responsible group leaderless)", key)
		case !found:
			c.violate("durability", "acked key %q (seq %d) lost", key, want)
		default:
			if got, ok := kv.SeqOf(v); ok && got < want {
				c.violate("durability", "acked key %q survived at seq %d, acked seq %d", key, got, want)
			}
		}
	}

	for g := 0; g < groups; g++ {
		stores := c.t.GroupStores(g)
		var dupes uint64
		for _, st := range stores {
			dupes += st.Dupes()
		}
		if dupes > 0 {
			c.violate("double-apply", "group %d replicas suppressed %d duplicate command(s)", g+1, dupes)
		}
		for i := 1; i < len(stores); i++ {
			if !storesEqual(stores[0], stores[i]) {
				c.violate("convergence", "group %d: live replicas diverge post-heal", g+1)
				break
			}
		}
	}

	return &InvariantReport{
		Checked:      append([]string(nil), invariantNames...),
		AckedWrites:  len(c.ackedKeys),
		Probes:       c.probes,
		MaxUnavailMs: float64(c.maxDown) / float64(time.Millisecond),
		Violations:   c.violations,
		Suppressed:   c.suppressed,
	}
}

// storesEqual compares two replica stores through the probe surface.
func storesEqual(a, b StoreProbe) bool {
	ak, bk := a.SortedKeys(), b.SortedKeys()
	if len(ak) != len(bk) {
		return false
	}
	for i, k := range ak {
		if bk[i] != k {
			return false
		}
		av, _ := a.Get(k)
		bv, _ := b.Get(k)
		if string(av) != string(bv) {
			return false
		}
	}
	return true
}
