package simulate

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
	"github.com/policyscope/policyscope/obs"
)

// What-if scenario engine. An Engine wraps a converged simulation plus a
// per-prefix record of every AS's best next hop (the "best forest").
// Apply takes a batch of events — link failures and restorations, prefix
// withdrawals and re-originations, policy edits — mutates the engine's
// private topology clone, and re-converges *incrementally*: only
// sessions whose announcements actually change are re-evaluated, each
// affected prefix restarts the event-driven activation loop from its
// reconstructed pre-event state, and prefixes the events cannot disturb
// are never touched. The final state is bit-identical to simulating the
// mutated topology from scratch (scenario_test.go proves it property-
// style); the benchmark suite shows the incremental path is an order of
// magnitude faster than full resimulation for localized events.

// EventKind names a scenario event type.
type EventKind string

// Scenario event kinds.
const (
	// EventLinkFail tears down the session between A and B.
	EventLinkFail EventKind = "link_fail"
	// EventLinkRestore (re-)establishes a session between A and B with
	// relationship Rel (what B is to A).
	EventLinkRestore EventKind = "link_restore"
	// EventWithdraw removes Prefix from its origin: the origin stops
	// announcing and the prefix disappears from the routing system.
	EventWithdraw EventKind = "withdraw"
	// EventAnnounce (re-)originates Prefix at Origin.
	EventAnnounce EventKind = "announce"
	// EventLocalPref overrides the local preference AS assigns to routes
	// learned from Neighbor — for every prefix, or for just Prefix when
	// PerPrefix is set.
	EventLocalPref EventKind = "local_pref"
	// EventSAToggle edits origin-side selective announcement: Prefix is
	// announced to (Announce=true) or withheld from (false) Provider.
	EventSAToggle EventKind = "sa_toggle"
	// EventNoUpstream attaches (Provider != 0) or clears (Provider == 0)
	// the scoped no-upstream community on Prefix at its origin.
	EventNoUpstream EventKind = "no_upstream"
)

// Event is one scenario step. Which fields matter depends on Kind; the
// constructors below populate them correctly.
type Event struct {
	Kind EventKind `json:"kind"`
	// A, B are the link endpoints of link events.
	A bgp.ASN `json:"a,omitempty"`
	B bgp.ASN `json:"b,omitempty"`
	// Rel is the restored link's relationship: what B is to A
	// ("provider", "customer", "peer", "sibling").
	Rel string `json:"rel,omitempty"`
	// Prefix is the subject of prefix and per-prefix policy events.
	Prefix netx.Prefix `json:"prefix,omitempty"`
	// Origin is the AS (re-)originating Prefix for EventAnnounce.
	Origin bgp.ASN `json:"origin,omitempty"`
	// AS owns the import policy edited by EventLocalPref.
	AS bgp.ASN `json:"as,omitempty"`
	// Neighbor is the session whose routes EventLocalPref re-prices.
	Neighbor bgp.ASN `json:"neighbor,omitempty"`
	// Value is the overriding local preference.
	Value uint32 `json:"value,omitempty"`
	// PerPrefix restricts EventLocalPref to Prefix.
	PerPrefix bool `json:"per_prefix,omitempty"`
	// Provider scopes EventSAToggle / EventNoUpstream.
	Provider bgp.ASN `json:"provider,omitempty"`
	// Announce is the EventSAToggle direction.
	Announce bool `json:"announce,omitempty"`
}

// MarshalJSON omits the prefix field on events that don't use it
// (`omitempty` cannot drop a zero struct, and a spurious "0.0.0.0/0"
// on link events misleads anyone reading a scenario file).
func (ev Event) MarshalJSON() ([]byte, error) {
	type bare Event // no methods: avoids recursing into this marshaller
	shadow := struct {
		bare
		Prefix *netx.Prefix `json:"prefix,omitempty"`
	}{bare: bare(ev)}
	if ev.Prefix != (netx.Prefix{}) {
		shadow.Prefix = &ev.Prefix
	}
	return json.Marshal(shadow)
}

// FailLink tears down the A–B session.
func FailLink(a, b bgp.ASN) Event { return Event{Kind: EventLinkFail, A: a, B: b} }

// RestoreLink re-establishes the A–B session; rel is what b is to a.
func RestoreLink(a, b bgp.ASN, rel asgraph.Relationship) Event {
	return Event{Kind: EventLinkRestore, A: a, B: b, Rel: rel.String()}
}

// WithdrawPrefix stops the origination of prefix.
func WithdrawPrefix(prefix netx.Prefix) Event {
	return Event{Kind: EventWithdraw, Prefix: prefix}
}

// AnnouncePrefix (re-)originates prefix at origin.
func AnnouncePrefix(prefix netx.Prefix, origin bgp.ASN) Event {
	return Event{Kind: EventAnnounce, Prefix: prefix, Origin: origin}
}

// SetLocalPref overrides the preference as assigns to every route from
// neighbor.
func SetLocalPref(as, neighbor bgp.ASN, value uint32) Event {
	return Event{Kind: EventLocalPref, AS: as, Neighbor: neighbor, Value: value}
}

// SetPrefixLocalPref overrides the preference as assigns to routes for
// prefix learned from neighbor.
func SetPrefixLocalPref(as, neighbor bgp.ASN, prefix netx.Prefix, value uint32) Event {
	return Event{Kind: EventLocalPref, AS: as, Neighbor: neighbor, Prefix: prefix, Value: value, PerPrefix: true}
}

// ToggleProviderAnnouncement announces (announce=true) or withholds
// prefix to/from one of its origin's providers.
func ToggleProviderAnnouncement(prefix netx.Prefix, provider bgp.ASN, announce bool) Event {
	return Event{Kind: EventSAToggle, Prefix: prefix, Provider: provider, Announce: announce}
}

// TagNoUpstream attaches the scoped no-upstream community on prefix
// toward provider (provider=0 clears it).
func TagNoUpstream(prefix netx.Prefix, provider bgp.ASN) Event {
	return Event{Kind: EventNoUpstream, Prefix: prefix, Provider: provider}
}

// Scenario is a named batch of events applied atomically: all events
// take effect, then the network re-converges once.
type Scenario struct {
	Name   string  `json:"name,omitempty"`
	Events []Event `json:"events"`
}

// WriteJSON renders the scenario as indented JSON, the format
// LoadScenario reads.
func (sc Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// LoadScenario reads a Scenario from JSON.
func LoadScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("simulate: bad scenario: %w", err)
	}
	return sc, nil
}

// LoadScenarioFile reads a Scenario from a JSON file.
func LoadScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	return LoadScenario(f)
}

// ApplyToTopology mutates topo as the scenario's events dictate, without
// any simulation. Engine.Apply uses the same mutations internally; tests
// use this to cross-check incremental re-convergence against a from-
// scratch simulation of the mutated topology.
func (sc Scenario) ApplyToTopology(topo *topogen.Topology) error {
	for _, ev := range sc.Events {
		if _, err := applyEventToTopology(topo, ev); err != nil {
			return err
		}
	}
	return nil
}

// applyEventToTopology performs one event's mutation, returning the
// relationship a removed or added edge carries (what B is to A).
func applyEventToTopology(topo *topogen.Topology, ev Event) (asgraph.Relationship, error) {
	switch ev.Kind {
	case EventLinkFail:
		rel, ok := topo.Graph.RemoveEdge(ev.A, ev.B)
		if !ok {
			return asgraph.RelNone, fmt.Errorf("simulate: %v: no link %v-%v", ev.Kind, ev.A, ev.B)
		}
		return rel, nil
	case EventLinkRestore:
		rel, err := asgraph.ParseRelationship(ev.Rel)
		if err != nil || rel == asgraph.RelNone {
			return asgraph.RelNone, fmt.Errorf("simulate: %v %v-%v: bad relationship %q", ev.Kind, ev.A, ev.B, ev.Rel)
		}
		if err := topo.Graph.AddEdge(ev.A, ev.B, rel); err != nil {
			return asgraph.RelNone, fmt.Errorf("simulate: %v: %w", ev.Kind, err)
		}
		return rel, nil
	case EventWithdraw:
		if !topo.RemovePrefix(ev.Prefix) {
			return asgraph.RelNone, fmt.Errorf("simulate: %v: %v is not originated", ev.Kind, ev.Prefix)
		}
	case EventAnnounce:
		if !topo.AddPrefix(ev.Prefix, ev.Origin) {
			return asgraph.RelNone, fmt.Errorf("simulate: %v: cannot originate %v at %v", ev.Kind, ev.Prefix, ev.Origin)
		}
	case EventLocalPref:
		pol := topo.Policies[ev.AS]
		if pol == nil {
			// Mirror SetAnnounceToProvider: a policy-less AS grows one on
			// first edit, so a mid-batch event can never fail after
			// earlier events already mutated the topology.
			pol = &topogen.Policy{AS: ev.AS}
			topo.Policies[ev.AS] = pol
		}
		if ev.PerPrefix {
			pol.EnsureOverride().SetPrefix(ev.Neighbor, ev.Prefix, ev.Value)
		} else {
			pol.EnsureOverride().SetNeighbor(ev.Neighbor, ev.Value)
		}
	case EventSAToggle:
		origin, ok := topo.PrefixOrigin[ev.Prefix]
		if !ok {
			return asgraph.RelNone, fmt.Errorf("simulate: %v: %v is not originated", ev.Kind, ev.Prefix)
		}
		topo.SetAnnounceToProvider(origin, ev.Prefix, ev.Provider, ev.Announce)
	case EventNoUpstream:
		origin, ok := topo.PrefixOrigin[ev.Prefix]
		if !ok {
			return asgraph.RelNone, fmt.Errorf("simulate: %v: %v is not originated", ev.Kind, ev.Prefix)
		}
		topo.SetNoUpstream(origin, ev.Prefix, ev.Provider)
	default:
		return asgraph.RelNone, fmt.Errorf("simulate: unknown event kind %q", ev.Kind)
	}
	return asgraph.RelNone, nil
}

// PrefixShift summarizes how one re-converged prefix's catchment moved:
// how many ASes changed the neighbor their best route uses, and how many
// lost or gained reachability outright.
type PrefixShift struct {
	Prefix netx.Prefix
	Origin bgp.ASN
	// Shifted counts ASes whose best next hop changed (including to or
	// from "no route").
	Shifted int
	// Lost / Gained count ASes that lost or gained any route.
	Lost, Gained int
	// Vantage lists the vantage-point ASes whose best next hop for the
	// prefix changed, ascending. Sweep aggregation builds its
	// per-vantage summaries from it.
	Vantage []bgp.ASN `json:",omitempty"`
}

// ReachDelta records a prefix whose AS-level reachability changed.
type ReachDelta struct {
	Prefix        netx.Prefix
	Before, After int
}

// Delta is the observable effect of one Apply.
type Delta struct {
	// Recomputed counts prefixes whose routing actually changed and were
	// re-converged. TotalPrefixes is the post-event prefix count.
	Recomputed    int
	TotalPrefixes int
	// Shifts lists every prefix with at least one changed best next hop,
	// most-shifted first.
	Shifts []PrefixShift
	// ReachDeltas lists prefixes whose reach count changed, biggest
	// absolute change first.
	ReachDeltas []ReachDelta
	// PeerBestChanged counts, per vantage AS (every one has a key),
	// the prefixes whose best route in that AS's table differs after
	// the batch from before it, compared as Route.String renders a
	// route (bgp.RenderEqual). The counts are net over the batch and
	// per Apply, not cumulative. Not serialized: policyscope's
	// WhatIfReport carries them on the wire.
	PeerBestChanged map[bgp.ASN]int `json:"-"`
}

// ShiftedASes sums Shifted over all shifts.
func (d *Delta) ShiftedASes() int {
	n := 0
	for _, s := range d.Shifts {
		n += s.Shifted
	}
	return n
}

// Engine is a converged simulation that accepts scenario events and
// re-converges incrementally. It owns a private clone of the topology it
// was built from; callers may keep using the original freely. Engine is
// not safe for concurrent use: Apply and Clone must not overlap on the
// same engine (concurrent Clone calls of a quiescent engine are fine,
// and the clones themselves are fully independent afterwards).
type Engine struct {
	e       *engine
	topo    *topogen.Topology
	opts    Options
	unconv  map[netx.Prefix]bool
	cloneMu sync.Mutex
	// shared says which topology components are still shared with the
	// engine's clone family and must be copied before an edit; see
	// clone.go.
	shared topoShare
	// scratch is the stack of idle scratch engines this engine has lent
	// out and taken back, the last one given back on top (lease.go); nil
	// until the first lease and again after every Apply or Rollback, which
	// leave the state they stand at.
	scratch atomic.Pointer[idleList]
	// leased is where Scratch builds the Deltas of the scenarios leased on
	// this engine; nil until its first one.
	leased *deltaBuf
}

// NewEngine runs a full simulation of topo and retains the per-prefix
// best forest that incremental re-convergence needs: 4 bytes per
// (prefix, AS) pair on top of what Run holds while it converges. Result
// is then a view of the engine, so a caller that wants both the
// converged tables and a what-if engine converges once — here — and
// RestoreEngine rebuilds the same engine from stored state without
// converging at all.
func NewEngine(topo *topogen.Topology, opts Options) (*Engine, error) {
	clone := topo.Clone()
	e := newEngine(clone, opts)
	e.track = make([][]int32, len(e.prefixes))
	unconverged := e.runPrefixes(e.prefixes)
	eng := &Engine{e: e, topo: clone, opts: opts, unconv: make(map[netx.Prefix]bool)}
	for _, p := range unconverged {
		eng.unconv[p] = true
	}
	return eng, nil
}

// Topology exposes the engine's current (possibly mutated) topology.
// Treat it as read-only; mutate it only through Apply.
func (en *Engine) Topology() *topogen.Topology { return en.topo }

// Result builds the current converged state in the same shape Run
// returns. Tables are shared with the engine: an Apply on this engine
// writes them in place (un-sharing first when a Clone exists), so a
// caller that keeps the Result keeps the engine pristine and applies to
// clones — the arrangement a Study and its base engine have.
func (en *Engine) Result() *Result {
	return en.e.buildResult(en.unconvergedList())
}

// UnconvergedCount reports how many prefixes hit the activation budget
// without converging. The scratch lease compares it against the base
// engine's count to decide whether a rollback restored a clean state.
func (en *Engine) UnconvergedCount() int { return len(en.unconv) }

// SetParallelism rebounds the per-Apply prefix worker count (0 =
// GOMAXPROCS). Every holder of a scratch engine sets its own: a sweep
// worker 1, so the parallelism lives across scenarios, not inside each
// one; a what-if the base engine's.
func (en *Engine) SetParallelism(n int) {
	en.opts.Parallelism = n
	en.e.opts.Parallelism = n
}

// Parallelism reports the engine's worker bound (0 = GOMAXPROCS).
func (en *Engine) Parallelism() int { return en.opts.Parallelism }

func (en *Engine) unconvergedList() []netx.Prefix {
	out := make([]netx.Prefix, 0, len(en.unconv))
	for p := range en.unconv {
		out = append(out, p)
	}
	netx.SortPrefixes(out)
	return out
}

// deltaBuf is where apply builds a Delta: the Delta itself, the arrays
// its lists grow in, and the reconstruction context and disturb set of
// its incremental pass. Apply builds in a new one per call; a scratch
// engine keeps one for life (lease.go), so each of its scenarios
// truncates or clears what the largest before it grew instead of
// allocating again.
type deltaBuf struct {
	d       Delta
	shifts  []PrefixShift
	reach   []ReachDelta
	vantage []bgp.ASN // the one array every shift's Vantage is carved from
	peers   map[bgp.ASN]int
	// The rest is the incremental pass's, which b is: rc, skip (the
	// prefixes the batch announced), disturbed (the prefixes it
	// re-converges), wide (namedPrefixes' sessions of neighbor-wide
	// local_prefs), shiftAt and reachAt (the position there of each shift
	// and reach delta it appended), the Apply's en and events, mu over
	// what workers report, and flipped, the prefixes whose unconverged
	// mark changes (the set is only read while they run).
	rc               recon
	skip             map[netx.Prefix]bool
	disturbed        []netx.Prefix
	wide             [][2]int32
	shiftAt, reachAt []int32
	en               *Engine
	events           []Event
	mu               sync.Mutex
	materialized     int
	flipped          []netx.Prefix
}

// reset starts a new Delta in b's arrays.
func (b *deltaBuf) reset() {
	b.d = Delta{Shifts: b.shifts[:0], ReachDeltas: b.reach[:0]}
	b.vantage = b.vantage[:0]
	if b.skip == nil {
		b.skip = make(map[netx.Prefix]bool)
	}
	clear(b.skip)
}

// vantageSince carves the ASNs appended to b.vantage since start into
// one shift's Vantage list: nil when there are none, and capped, so that
// an append to one list can never write into the next.
func (b *deltaBuf) vantageSince(start int) []bgp.ASN {
	end := len(b.vantage)
	if end == start {
		return nil
	}
	return b.vantage[start:end:end]
}

// addShift appends sh to the Delta, its Vantage list copied into b (the
// caller's list may be a worker's buffer).
func (b *deltaBuf) addShift(sh PrefixShift) {
	start := len(b.vantage)
	b.vantage = append(b.vantage, sh.Vantage...)
	sh.Vantage = b.vantageSince(start)
	b.d.Shifts = append(b.d.Shifts, sh)
}

// finish keeps the arrays the Delta's lists grew for the next reset, and
// leaves an empty list nil, as a Delta built from nothing has it.
func (b *deltaBuf) finish() {
	b.shifts, b.reach = b.d.Shifts, b.d.ReachDeltas
	if len(b.d.Shifts) == 0 {
		b.d.Shifts = nil
	}
	if len(b.d.ReachDeltas) == 0 {
		b.d.ReachDeltas = nil
	}
}

// Apply mutates the engine's topology as the scenario dictates and
// re-converges incrementally. It returns a Delta describing every
// routing change, which is the caller's. On an event validation error
// the engine state is unchanged; events are validated before any
// mutation.
func (en *Engine) Apply(sc Scenario) (*Delta, error) {
	b := new(deltaBuf)
	if err := en.apply(sc, b); err != nil {
		return nil, err
	}
	d := b.d // copied out, so the Delta does not pin b's maps and engine
	return &d, nil
}

// apply is Apply building its Delta in b, whose arrays it reuses.
func (en *Engine) apply(sc Scenario, b *deltaBuf) error {
	e := en.e
	if err := en.validate(sc); err != nil {
		return err
	}
	mApplies.Inc()
	en.scratch.Store(nil)
	var applyStart time.Time
	if obs.Enabled() {
		applyStart = time.Now()
	}
	defer observeApplyEnd(applyStart)
	// Scenario events can change origins, policies and adjacency; the
	// cold-convergence atom partition no longer describes this engine
	// (Rollback restores the pre-Apply staleness).
	e.journal.beginApply(e.atomsStale)
	e.atomsStale = true
	e.beginBestChanges()
	// An event that fails past validation returns with the records armed
	// and half filled; the next Apply would take them for its own.
	defer e.disarmBestChanges()

	b.reset()
	rc := &b.rc
	rc.reset(e)
	delta := &b.d

	// Mutate the topology — each event first un-shares the component it
	// edits (clone.go) and journals what it writes — recording link deltas
	// and policy edits for reconstruction, and handle prefix
	// removal/addition bookkeeping.
	var added []netx.Prefix
	for _, ev := range sc.Events {
		switch ev.Kind {
		case EventWithdraw:
			if i := slices.Index(added, ev.Prefix); i >= 0 {
				// Announced earlier in this batch and never converged:
				// net effect is nothing, so just unwind the bookkeeping.
				added = slices.Delete(added, i, i+1)
			} else {
				en.recordWithdrawal(ev.Prefix, b)
			}
			origin := en.topo.PrefixOrigin[ev.Prefix]
			if err := en.editTopology(rc, ev); err != nil {
				return err
			}
			en.removePrefixState(ev.Prefix, origin)
		case EventAnnounce:
			if err := en.editTopology(rc, ev); err != nil {
				return err
			}
			en.addPrefixState(ev.Prefix)
			added = append(added, ev.Prefix)
		case EventLinkFail, EventLinkRestore:
			en.ownGraph()
			rel, err := applyEventToTopology(en.topo, ev)
			if err != nil {
				return err
			}
			ai, bi := int32(e.idx[ev.A]), int32(e.idx[ev.B])
			pair := edgePair(ai, bi)
			if ev.Kind == EventLinkFail {
				was := orient(rel, ai, bi)
				rc.removed[pair] = was
				e.journal.linkDone(linkDelta{pair: pair, rel: was})
			} else {
				rc.added[pair] = true
				e.journal.linkDone(linkDelta{pair: pair, restored: true})
			}
			rc.endpoints = append(rc.endpoints, ai, bi)
		default:
			if err := en.editTopology(rc, ev); err != nil {
				return err
			}
		}
	}
	if len(rc.endpoints) > 0 {
		slices.Sort(rc.endpoints)
		rc.endpoints = slices.Compact(rc.endpoints)
		e.relink(rc.endpoints)
	}

	// Newly originated prefixes converge from scratch.
	if len(added) > 0 {
		for _, p := range added {
			unconverged := e.runPrefixes([]netx.Prefix{p})
			for _, u := range unconverged {
				en.unconv[u] = true
			}
			pi := e.prefixIdx[p]
			gained := 0
			start := len(b.vantage)
			for i, f := range e.track[pi] {
				if f != trackNone {
					gained++
					if e.vantage[i] {
						b.vantage = append(b.vantage, e.asns[i])
					}
				}
			}
			delta.Shifts = append(delta.Shifts, PrefixShift{
				Prefix: p, Origin: en.topo.PrefixOrigin[p],
				Shifted: gained, Gained: gained, Vantage: b.vantageSince(start),
			})
			if after := int(e.reachCounts[pi]); after != 0 {
				delta.ReachDeltas = append(delta.ReachDeltas, ReachDelta{Prefix: p, After: after})
			}
			delta.Recomputed++
		}
	}

	// Incremental pass over every pre-existing prefix: re-evaluate only
	// the sessions the events changed, re-converging from reconstructed
	// pre-event state when anything actually differs.
	for _, p := range added {
		b.skip[p] = true
	}
	disturbed, materialized := en.runIncremental(sc.Events, b)

	var written int
	delta.PeerBestChanged, written = e.endBestChanges(b.peers)
	b.peers = delta.PeerBestChanged
	mApplyDisturbed.Observe(float64(len(added) + disturbed))
	mApplyMaterialized.Observe(float64(materialized))
	mApplyEntriesRewritten.Observe(float64(written))
	delta.TotalPrefixes = len(e.prefixes)
	slices.SortFunc(delta.Shifts, cmpShift)
	slices.SortFunc(delta.ReachDeltas, cmpReach)
	b.finish()
	return nil
}

// cmpShift orders a Delta's shifts: most ASes shifted first, then by
// prefix. A hijacked prefix's two shifts (one per origin) can tie, and
// where the unstable sort puts them is in every record and digest, so a
// different sort must place ties as this one does
// (TestSortTiesKeepTheirPlace).
func cmpShift(a, b PrefixShift) int {
	if a.Shifted != b.Shifted {
		return cmp.Compare(b.Shifted, a.Shifted)
	}
	return a.Prefix.Compare(b.Prefix)
}

// cmpReach orders a Delta's reach deltas: largest change first, then by
// prefix, ties as for cmpShift.
func cmpReach(a, b ReachDelta) int {
	if da, db := abs(a.After-a.Before), abs(b.After-b.Before); da != db {
		return cmp.Compare(db, da)
	}
	return a.Prefix.Compare(b.Prefix)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// validate checks every event against the engine's current state before
// anything mutates, so a bad batch leaves the engine untouched.
func (en *Engine) validate(sc Scenario) error {
	topo := en.topo
	// Track prefix existence through the batch so withdraw-then-announce
	// sequences validate correctly.
	exists := make(map[netx.Prefix]bool)
	has := func(p netx.Prefix) bool {
		if v, ok := exists[p]; ok {
			return v
		}
		_, ok := topo.PrefixOrigin[p]
		return ok
	}
	// Link state is tracked through the batch so fail-then-restore
	// sequences validate correctly.
	linkUp := make(map[[2]bgp.ASN]bool)
	linkKey := func(a, b bgp.ASN) [2]bgp.ASN {
		if a < b {
			return [2]bgp.ASN{a, b}
		}
		return [2]bgp.ASN{b, a}
	}
	up := func(a, b bgp.ASN) bool {
		if v, ok := linkUp[linkKey(a, b)]; ok {
			return v
		}
		return topo.Graph.Rel(a, b) != asgraph.RelNone
	}
	for _, ev := range sc.Events {
		switch ev.Kind {
		case EventLinkFail, EventLinkRestore:
			for _, asn := range []bgp.ASN{ev.A, ev.B} {
				if _, ok := en.e.idx[asn]; !ok {
					return fmt.Errorf("simulate: %v: unknown AS %v", ev.Kind, asn)
				}
			}
			if ev.A == ev.B {
				return fmt.Errorf("simulate: %v: self link on %v", ev.Kind, ev.A)
			}
			if ev.Kind == EventLinkFail {
				if !up(ev.A, ev.B) {
					return fmt.Errorf("simulate: %v: no link %v-%v", ev.Kind, ev.A, ev.B)
				}
				linkUp[linkKey(ev.A, ev.B)] = false
			} else {
				if rel, err := asgraph.ParseRelationship(ev.Rel); err != nil || rel == asgraph.RelNone {
					return fmt.Errorf("simulate: %v %v-%v: bad relationship %q", ev.Kind, ev.A, ev.B, ev.Rel)
				}
				if up(ev.A, ev.B) {
					return fmt.Errorf("simulate: %v: link %v-%v already up", ev.Kind, ev.A, ev.B)
				}
				linkUp[linkKey(ev.A, ev.B)] = true
			}
		case EventWithdraw:
			if !has(ev.Prefix) {
				return fmt.Errorf("simulate: %v: %v is not originated", ev.Kind, ev.Prefix)
			}
			exists[ev.Prefix] = false
		case EventAnnounce:
			if has(ev.Prefix) {
				return fmt.Errorf("simulate: %v: %v is already originated", ev.Kind, ev.Prefix)
			}
			if _, ok := en.e.idx[ev.Origin]; !ok {
				return fmt.Errorf("simulate: %v: unknown AS %v", ev.Kind, ev.Origin)
			}
			exists[ev.Prefix] = true
		case EventLocalPref:
			if _, ok := en.e.idx[ev.AS]; !ok {
				return fmt.Errorf("simulate: %v: unknown AS %v", ev.Kind, ev.AS)
			}
			if _, ok := en.e.idx[ev.Neighbor]; !ok {
				return fmt.Errorf("simulate: %v: unknown neighbor %v", ev.Kind, ev.Neighbor)
			}
		case EventSAToggle, EventNoUpstream:
			if !has(ev.Prefix) {
				return fmt.Errorf("simulate: %v: %v is not originated", ev.Kind, ev.Prefix)
			}
		default:
			return fmt.Errorf("simulate: unknown event kind %q", ev.Kind)
		}
	}
	return nil
}

// recordWithdrawal puts the catchment a withdrawn prefix loses on the
// Delta b builds, before the state that says so disappears.
func (en *Engine) recordWithdrawal(prefix netx.Prefix, b *deltaBuf) {
	e := en.e
	delta := &b.d
	pi := e.prefixIdx[prefix]
	lost := 0
	start := len(b.vantage)
	for i, f := range e.track[pi] {
		if f != trackNone {
			lost++
			if e.vantage[i] {
				b.vantage = append(b.vantage, e.asns[i])
			}
		}
	}
	if lost > 0 {
		delta.Shifts = append(delta.Shifts, PrefixShift{
			Prefix: prefix, Origin: en.topo.PrefixOrigin[prefix],
			Shifted: lost, Lost: lost, Vantage: b.vantageSince(start),
		})
	}
	if before := int(e.reachCounts[pi]); before != 0 {
		delta.ReachDeltas = append(delta.ReachDeltas, ReachDelta{Prefix: prefix, Before: before})
	}
	delta.Recomputed++
}

// removePrefixState erases a withdrawn prefix from tables, reach counts
// and the best forest, compacting the engine's prefix indexing. origin
// is the journal's: who originated the prefix before the event.
func (en *Engine) removePrefixState(prefix netx.Prefix, origin bgp.ASN) {
	e := en.e
	for vi, slot := range e.tables {
		slot.mu.Lock()
		if slot.rib.Has(prefix) {
			e.writableFor(vi, slot, prefix).DropPrefix(prefix)
		}
		slot.mu.Unlock()
	}
	jp := journalPrefix{op: prefixWithdrawn, prefix: prefix, unconv: en.unconv[prefix], origin: origin}
	jp.pi, jp.row, jp.shared, jp.reach = e.unindexPrefix(prefix)
	delete(en.unconv, prefix)
	e.journal.prefixDone(jp)
}

// addPrefixState registers a newly originated prefix at the end of the
// engine's indexing; its state is produced by the full-convergence pass.
func (en *Engine) addPrefixState(prefix netx.Prefix) {
	en.e.indexPrefixAt(len(en.e.prefixes), prefix, nil, false, 0)
	en.e.journal.prefixDone(journalPrefix{op: prefixAnnounced, prefix: prefix})
}

// unindexPrefix swap-removes prefix from the prefix indexing and returns
// where it sat and what sat there with it.
func (e *engine) unindexPrefix(prefix netx.Prefix) (pi int, row []int32, shared bool, reach int64) {
	pi = e.prefixIdx[prefix]
	row, reach = e.track[pi], e.reachCounts[pi]
	last := len(e.prefixes) - 1
	e.prefixes[pi] = e.prefixes[last]
	e.prefixes = e.prefixes[:last]
	e.reachCounts[pi] = e.reachCounts[last]
	e.reachCounts = e.reachCounts[:last]
	e.track[pi] = e.track[last]
	e.track = e.track[:last]
	if e.trackShared != nil {
		shared = e.trackShared[pi]
		e.trackShared[pi] = e.trackShared[last]
		e.trackShared = e.trackShared[:last]
	}
	delete(e.prefixIdx, prefix)
	if pi < last {
		e.prefixIdx[e.prefixes[pi]] = pi
	}
	return pi, row, shared, reach
}

// indexPrefixAt is unindexPrefix's inverse: prefix goes back to index pi
// and what the swap-remove moved there returns to the end. With pi the
// length of the index it appends.
func (e *engine) indexPrefixAt(pi int, prefix netx.Prefix, row []int32, shared bool, reach int64) {
	last := len(e.prefixes)
	e.prefixes = append(e.prefixes, prefix)
	e.reachCounts = append(e.reachCounts, reach)
	e.track = append(e.track, row)
	if e.trackShared != nil {
		e.trackShared = append(e.trackShared, shared)
	}
	if pi < last {
		e.prefixes[last], e.prefixes[pi] = e.prefixes[pi], prefix
		e.reachCounts[last], e.reachCounts[pi] = e.reachCounts[pi], reach
		e.track[last], e.track[pi] = e.track[pi], row
		if e.trackShared != nil {
			e.trackShared[last], e.trackShared[pi] = e.trackShared[pi], shared
		}
		e.prefixIdx[e.prefixes[last]] = last
	}
	e.prefixIdx[prefix] = pi
}

// edgePair canonicalizes an undirected AS-index pair.
func edgePair(a, b int32) [2]int32 {
	if a < b {
		return [2]int32{a, b}
	}
	return [2]int32{b, a}
}

// orient stores rel (what B is to A) normalized to the canonical pair
// order used by edgePair.
func orient(rel asgraph.Relationship, a, b int32) asgraph.Relationship {
	if a < b {
		return rel
	}
	return rel.Invert()
}

// recon is the Apply-scoped context for reconstructing pre-event state:
// which edges this batch removed or added (with the removed edges'
// relationships), the ASes those edges end at, and the records of the
// Policy entries it edited (edit.go).
type recon struct {
	e       *engine
	removed map[[2]int32]asgraph.Relationship // value: what pair[1] is to pair[0]
	added   map[[2]int32]bool
	// endpoints lists the ASes a link event of the batch ends at, sorted
	// ascending: a session between two ASes that are not both in it kept
	// its relationship, which spares the hot paths the map probes.
	endpoints []int32
	edits     []policyEdit
}

// reset empties rc for an Apply on e, keeping what its maps and list
// grew to for the next one.
func (rc *recon) reset(e *engine) {
	rc.e = e
	if rc.removed == nil {
		rc.removed = make(map[[2]int32]asgraph.Relationship)
		rc.added = make(map[[2]int32]bool)
	}
	clear(rc.removed)
	clear(rc.added)
	clear(rc.edits) // pins no OriginProviders set
	rc.endpoints, rc.edits = rc.endpoints[:0], rc.edits[:0]
}

// linkChanged reports whether this batch may have removed or added the
// u–v edge: both must be endpoints of one of its link events.
func (rc *recon) linkChanged(u, v int32) bool {
	seen := 0
	for _, x := range rc.endpoints {
		if x == u || x == v {
			seen++
		}
	}
	return seen == 2
}

// relOld returns what v was to u before this batch's link events, given
// what it is now (cur — the caller usually has the adjacency slot in
// hand; RelNone for a session that is no longer there).
func (rc *recon) relOld(u, v int32, cur asgraph.Relationship) asgraph.Relationship {
	if !rc.linkChanged(u, v) {
		return cur
	}
	key := edgePair(u, v)
	if rel, ok := rc.removed[key]; ok {
		if key[0] == u {
			return rel
		}
		return rel.Invert()
	}
	if rc.added[key] {
		return asgraph.RelNone
	}
	return cur
}

// relAny returns the current relationship, falling back to the removed-
// edge record (used to classify the ingress of not-yet-reprocessed old
// routes whose next hop crossed a failed link).
func (rc *recon) relAny(u, v int32) asgraph.Relationship {
	if rel, _ := rc.e.sessionTo(u, v); rel != asgraph.RelNone {
		return rel
	}
	return rc.relOld(u, v, asgraph.RelNone)
}

// prefixRecon reconstructs one prefix's pre-event routing state from the
// best forest: every AS's best route is its parent's best route pushed
// through the (pre-event) session policies, recursively down to the
// origin's local route.
type prefixRecon struct {
	rc        *recon
	st        *workerState
	prefix    netx.Prefix
	originIdx int32
	row       []int32
	// eager turns deferred materialization off: the prefix is in the
	// unconverged set, so its forest row is a mid-oscillation capture
	// that says nothing reliable about anyone's best.
	eager bool
}

// newPrefixRecon binds the reconstruction to st: rebuilt routes come
// from st's arenas and the memo lives in its version-stamped arrays, so
// scanning a prefix allocates nothing. st must already be reset for
// this prefix.
func newPrefixRecon(rc *recon, st *workerState, prefix netx.Prefix, eager bool) *prefixRecon {
	e := rc.e
	return &prefixRecon{
		rc:        rc,
		st:        st,
		prefix:    prefix,
		originIdx: int32(e.idx[e.topo.PrefixOrigin[prefix]]),
		row:       e.track[e.prefixIdx[prefix]],
		eager:     eager,
	}
}

// bestOld rebuilds AS u's pre-event best route for the prefix.
func (pr *prefixRecon) bestOld(u int32) *bgp.Route {
	return pr.bestOldDepth(u, 0)
}

func (pr *prefixRecon) bestOldDepth(u int32, depth int) *bgp.Route {
	f := pr.row[u]
	if f == trackNone {
		return nil
	}
	if pr.st.memoSeen[u] == pr.st.version {
		return pr.st.memoRoute[u]
	}
	// A converged forest is acyclic with chains no longer than the AS
	// count; anything deeper means the row was captured mid-oscillation
	// (a budget-exhausted prefix). Treat it as no route instead of
	// recursing forever.
	if depth > len(pr.rc.e.asns) {
		return nil
	}
	var r *bgp.Route
	if f == u {
		r = localRoute(&pr.st.routes, pr.prefix, pr.rc.e.asns[u])
	} else {
		parentBest := pr.bestOldDepth(f, depth+1)
		if parentBest == nil {
			// A forest invariant violation lands here; treat as no
			// route rather than corrupting downstream state.
			return nil
		}
		rel, slot := pr.rc.e.sessionTo(f, u)
		r = pr.buildOld(f, u, slot, pr.rc.relOld(f, u, rel), parentBest)
	}
	pr.st.memoSeen[u] = pr.st.version
	pr.st.memoRoute[u] = r
	return r
}

// candOld rebuilds the candidate AS v held from neighbor u pre-event
// (nil when the session carried nothing). cur is what v is to u now and
// vslot u's slot in v's adjacency (-1 for none): the callers walk an
// adjacency list and read both off the slot in hand.
//
// The export gate comes first: u had no route, v is the origin, or the
// valley-free rule refuses what u learned from its forest parent to a
// v that was its provider or peer. Each of these makes the candidate nil
// whatever u's route holds, so the forest's cells answer, and u's route —
// a rebuild of its whole chain to the origin on a memo miss — is rebuilt
// only for sessions that may carry it.
func (pr *prefixRecon) candOld(v, u int32, cur asgraph.Relationship, vslot int32) *bgp.Route {
	relVtoU := pr.rc.relOld(u, v, cur)
	if relVtoU == asgraph.RelNone {
		return nil
	}
	// The receiver's own best along the session is stored parent-side;
	// reuse it rather than rebuilding.
	if pr.row[v] == u {
		return pr.bestOld(v)
	}
	f := pr.row[u]
	if f == trackNone || v == pr.originIdx {
		return nil
	}
	e := pr.rc.e
	var ingress asgraph.Relationship
	if f != u {
		rel, _ := e.sessionTo(u, f)
		if ingress = pr.rc.relOld(u, f, rel); !valleyFree(relVtoU, ingress) {
			return nil
		}
	}
	best := pr.bestOld(u)
	if best == nil || best.Path.Contains(e.asns[v]) {
		return nil
	}
	if !pr.exportOld(u, v, relVtoU, ingress, best) {
		return nil
	}
	return pr.buildOld(u, v, vslot, relVtoU, best)
}

// candNew computes the candidate v would hold from u right now: u's
// current best (pre-event unless u was already re-seeded) pushed through
// the post-event session policies. Nothing crosses a link that is down.
// relVtoU is what v is to u now and vslot u's slot in v's adjacency
// (sessionTo). For an unmaterialized u, candOld's export gate runs on
// the forest before u's pre-event route is rebuilt.
func (pr *prefixRecon) candNew(st *workerState, v, u int32, relVtoU asgraph.Relationship, vslot int32) *bgp.Route {
	if relVtoU == asgraph.RelNone || v == pr.originIdx {
		return nil
	}
	var (
		best    *bgp.Route
		ingress asgraph.Relationship // the class of u's next hop, which gates the export
	)
	if st.seen[u] == st.version {
		if best = st.best[u]; best != nil && !best.IsLocal() {
			ingress = pr.rc.relAny(u, st.bestFrom[u])
		}
	} else {
		from := pr.row[u]
		if from == trackNone {
			return nil
		}
		if from != u {
			if ingress = pr.rc.relAny(u, from); !valleyFree(relVtoU, ingress) {
				return nil
			}
		}
		best = pr.bestOld(u)
	}
	e := pr.rc.e
	if best == nil || best.Path.Contains(e.asns[v]) {
		return nil
	}
	if !exportAllowed(e.asns[u], e.asns[v], relVtoU, ingress, best, pr.prefix, e.pols[u]) {
		return nil
	}
	return e.buildAnnouncement(u, v, vslot, relVtoU, best, pr.prefix, e.pols[u], e.pols[v], pr.st)
}

// materialize seeds v's per-prefix scratch state with its reconstructed
// pre-event candidates and best route, then brings the sessions update
// deferred for v up to date: each is re-derived through candNew from
// what its neighbor holds now, so v selects among what it would really
// hear — including nothing at all over a link the batch took down,
// whose pre-event candidate the reconstruction has just installed.
func (pr *prefixRecon) materialize(st *workerState, v int32) {
	if st.seen[v] == st.version {
		return
	}
	st.touch(v)
	e := pr.rc.e
	nbrs := e.nbrs[v]
	for j, u := range nbrs {
		// The record holds what u is to v; candOld wants v's side of it.
		if c := pr.candOld(v, u, e.sess[v][j].rel.Invert(), int32(j)); c != nil {
			st.cs.setAt(v, int32(j), c)
		}
	}
	// Sessions over just-failed links are gone from the adjacency but
	// their candidates were still installed pre-event (the candidate
	// store files them in its overflow list).
	for key := range pr.rc.removed {
		var u int32
		switch v {
		case key[0]:
			u = key[1]
		case key[1]:
			u = key[0]
		default:
			continue
		}
		if c := pr.candOld(v, u, asgraph.RelNone, -1); c != nil {
			st.cs.set(nbrs, v, u, c)
		}
	}
	f := pr.row[v]
	st.bestFrom[v] = f
	switch {
	case f == trackNone:
		st.best[v] = nil
	case f == v:
		st.best[v] = localRoute(&st.routes, pr.prefix, e.asns[v])
	default:
		st.best[v] = st.cs.get(nbrs, v, f)
	}
	if st.deferSeen[v] != st.version {
		return
	}
	for i := st.deferHead[v]; i >= 0; i = st.deferred[i].next {
		u := st.deferred[i].u
		rel, vslot := e.sessionTo(u, v)
		if c := pr.candNew(st, v, u, rel, vslot); c != nil {
			st.cs.set(nbrs, v, u, c)
		} else {
			st.cs.del(nbrs, v, u)
		}
	}
}

// keepsBest reports whether unmaterialized v certainly keeps its best
// route when the candidate it holds from u becomes rNew. The import
// rule is a total order over v's candidates — reselect scans them in
// ascending neighbor order and keeps the first that bgp.Compare does not
// rank below another — so as long as the candidate from the parent the
// forest records is untouched, a changed candidate from anyone else
// moves v only by beating that best in exactly that order. Vantage ASes
// are excluded (their tables hold every candidate, best or not), and so
// is every AS of an unconverged prefix (pr.eager).
func (pr *prefixRecon) keepsBest(v, u int32, rNew *bgp.Route) bool {
	e := pr.rc.e
	f := pr.row[v]
	if pr.eager || u == f || e.vantage[int(v)] {
		return false
	}
	if rNew == nil {
		return true
	}
	best := pr.bestOld(v)
	if best == nil {
		return false
	}
	c := bgp.Compare(rNew, best, e.depth)
	return c > 0 || (c == 0 && u > f)
}

// update installs rNew as the candidate v holds from u, the caller
// having found it differs from the one v held. An unmaterialized v that
// keeps its best regardless (keepsBest) stays unmaterialized: the
// session is only remembered on st, to be replayed should anything
// materialize v later in this prefix. Otherwise v is materialized,
// updated and re-selected.
func (pr *prefixRecon) update(st *workerState, v, u int32, rNew *bgp.Route) {
	if st.seen[v] != st.version && pr.keepsBest(v, u, rNew) {
		st.deferSession(v, u)
		return
	}
	e := pr.rc.e
	pr.materialize(st, v)
	if rNew == nil {
		st.cs.del(e.nbrs[v], v, u)
	} else {
		st.cs.set(e.nbrs[v], v, u, rNew)
	}
	e.reselect(st, v)
}

// sessionReseed re-evaluates the u→v session after the events and
// updates v when the candidate it holds from u changed. Unchanged
// sessions cost two route reconstructions and no state.
func (pr *prefixRecon) sessionReseed(st *workerState, u, v int32) {
	e := pr.rc.e
	rel, vslot := e.sessionTo(u, v)
	var rOld *bgp.Route
	if st.seen[v] == st.version {
		rOld = st.cs.get(e.nbrs[v], v, u)
	} else {
		rOld = pr.candOld(v, u, rel, vslot)
	}
	if rNew := pr.candNew(st, v, u, rel, vslot); !routesEquivalent(rOld, rNew) {
		pr.update(st, v, u, rNew)
	}
}

// runIncremental runs the incremental re-convergence pass over the
// pre-existing prefixes the batch can disturb. Link-failure-only batches
// take the atom-aware fast path: the disturb set is read off the best
// forest (only prefixes whose forest actually crosses a failed link can
// change any best route), every other prefix needs at most a
// constant-time candidate removal in the vantage tables. Any other batch
// visits the union of the prefixes its events name (see namedPrefixes).
// It returns how many prefixes it submitted to re-convergence and how
// many ASes those re-convergences materialized.
func (en *Engine) runIncremental(events []Event, b *deltaBuf) (disturbed, materialized int) {
	e := en.e
	delta := &b.d
	var prefixes []netx.Prefix
	if allLinkFailures(events) {
		prefixes = en.linkFailDisturbSet(events, delta, b.disturbed[:0])
	} else {
		prefixes = en.namedPrefixes(events, b)
	}
	b.disturbed = prefixes
	shifts, reaches := len(delta.Shifts), len(delta.ReachDeltas)
	b.shiftAt, b.reachAt = b.shiftAt[:0], b.reachAt[:0]
	b.en, b.events, b.materialized, b.flipped = en, events, 0, b.flipped[:0]
	forEachIndex(e, len(prefixes), b)
	// Workers append in the order they finish, and Apply's sort is not
	// stable: where it puts a tie — a hijacked prefix's two shifts —
	// depends on the order it is handed. Hand it the order one worker
	// appends in, whatever the worker count.
	inVisitOrder(delta.Shifts[shifts:], b.shiftAt)
	inVisitOrder(delta.ReachDeltas[reaches:], b.reachAt)
	for _, p := range b.flipped {
		was := en.unconv[p]
		e.journal.prefixDone(journalPrefix{op: prefixMark, prefix: p, unconv: was})
		if was {
			delete(en.unconv, p)
		} else {
			en.unconv[p] = true
		}
	}
	return len(prefixes), b.materialized
}

func (b *deltaBuf) open() *workerState    { return b.en.e.getState() }
func (b *deltaBuf) close(st *workerState) { b.en.e.putState(st) }

// visit re-converges the i-th prefix of the disturb set.
func (b *deltaBuf) visit(st *workerState, i int) {
	p := b.disturbed[i]
	was := b.en.unconv[p]
	shift, reach, touched, changed, converged := b.en.reconverge(st, p, was, b.events, &b.rc)
	if !changed && converged {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.materialized += touched
	if changed {
		b.d.Recomputed++
	}
	if shift.Shifted > 0 {
		b.addShift(shift)
		b.shiftAt = append(b.shiftAt, int32(i))
	}
	if reach.Before != reach.After {
		b.d.ReachDeltas = append(b.d.ReachDeltas, reach)
		b.reachAt = append(b.reachAt, int32(i))
	}
	// A prefix that exhausted its budget joins the set; one that was in
	// it and re-converged now (it changed, or we returned above) leaves.
	if was == converged {
		b.flipped = append(b.flipped, p)
	}
}

// inVisitOrder sorts recs, appended by concurrent workers, by at: the
// position in the visit list each was made for, kept in step. They arrive
// nearly in order, which insertion sort takes in about one pass.
func inVisitOrder[T any](recs []T, at []int32) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && at[j] < at[j-1]; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
			at[j], at[j-1] = at[j-1], at[j]
		}
	}
}

// namedPrefixes returns the pre-existing prefixes the events of a mixed
// batch name, minus skip (the ones the batch announced, already converged
// from scratch). A link event changes a session every prefix may cross,
// so it names them all — a link failure too: linkFailDisturbSet withdraws
// non-best candidates in place, which is only sound when nothing else in
// the batch re-evaluates the session. A neighbor-wide local_pref re-prices
// one session, and names the prefixes whose pre-event route may cross it:
// candOld's export gate, asked of the forest row, rules the others out
// (and no other event of a batch without link events can make the session
// carry them). Unconverged prefixes, whose rows say nothing, stay in.
// sa_toggle, no_upstream and a per-prefix local_pref re-evaluate sessions
// for their one prefix only. withdraw and announce name nothing: Apply
// already dropped or converged their prefix, and no other prefix's
// routes depend on it. skip is b.skip, and the list is built in
// b.disturbed's array, in index order when a local_pref is
// neighbor-wide, sorted otherwise.
func (en *Engine) namedPrefixes(events []Event, b *deltaBuf) []netx.Prefix {
	e := en.e
	skip, out := b.skip, b.disturbed[:0]
	named := make(map[netx.Prefix]bool)
	wide := b.wide[:0] // (neighbor, AS) of each neighbor-wide local_pref
	for _, ev := range events {
		switch ev.Kind {
		case EventWithdraw, EventAnnounce:
		case EventSAToggle, EventNoUpstream:
			named[ev.Prefix] = true
		case EventLocalPref:
			if ev.PerPrefix {
				named[ev.Prefix] = true
			} else {
				wide = append(wide, [2]int32{int32(e.idx[ev.Neighbor]), int32(e.idx[ev.AS])})
			}
		default:
			for _, p := range e.prefixes {
				if !skip[p] {
					out = append(out, p)
				}
			}
			return out
		}
	}
	b.wide = wide
	if len(wide) > 0 {
		for pi, p := range e.prefixes {
			if !skip[p] && (named[p] || en.unconv[p] || e.mayCarry(pi, wide)) {
				out = append(out, p)
			}
		}
		return out
	}
	for p := range named {
		// A named prefix may have been withdrawn later in the batch, or
		// never have existed (a per-prefix local_pref is not validated
		// against the prefix set).
		if _, ok := e.prefixIdx[p]; ok && !skip[p] {
			out = append(out, p)
		}
	}
	netx.SortPrefixes(out)
	return out
}

// mayCarry reports whether converged prefix pi's pre-event route may
// cross one of the sessions, each a (u, v) pair announcing from u to v:
// whether candOld's export gate, asked of the forest row, lets u's route
// through. (A v whose best comes over the session passes it: the forest
// was built under the same rules.) In a converged row the origin alone
// holds its own index. Only a batch without link events asks, so the
// current adjacency is the pre-event one.
func (e *engine) mayCarry(pi int, sessions [][2]int32) bool {
	row := e.track[pi]
	if row == nil {
		return true
	}
	for _, s := range sessions {
		u, v := s[0], s[1]
		relVtoU, _ := e.sessionTo(u, v)
		f := row[u]
		switch {
		case relVtoU == asgraph.RelNone || f == trackNone || row[v] == v:
		case f == u:
			return true
		default:
			if ingress, _ := e.sessionTo(u, f); valleyFree(relVtoU, ingress) {
				return true
			}
		}
	}
	return false
}

func allLinkFailures(events []Event) bool {
	if len(events) == 0 {
		return false
	}
	for _, ev := range events {
		if ev.Kind != EventLinkFail {
			return false
		}
	}
	return true
}

// linkFailDisturbSet returns the prefixes a batch of link failures can
// actually disturb, handling the rest in place. A prefix's best routes
// can only change when its best forest crosses a failed link (the
// failing candidate was some AS's best); otherwise the failure at most
// removes a non-best candidate, which is observable only in a vantage
// table and is withdrawn directly. Budget-exhausted prefixes have
// unreliable forest rows and always reconverge. The disturb set is
// appended to disturbed. Under a checkpoint, a withdrawal's copy of an
// entry the table reads through to is carved from the region.
func (en *Engine) linkFailDisturbSet(events []Event, delta *Delta, disturbed []netx.Prefix) []netx.Prefix {
	e := en.e
	carve := e.carving().entryStorage
	links := make([][2]int32, 0, len(events))
	for _, ev := range events {
		links = append(links, [2]int32{int32(e.idx[ev.A]), int32(e.idx[ev.B])})
	}
	for pi, p := range e.prefixes {
		row := e.track[pi]
		carrier := row == nil || en.unconv[p]
		if !carrier {
			for _, l := range links {
				if row[l[0]] == l[1] || row[l[1]] == l[0] {
					carrier = true
					break
				}
			}
		}
		if carrier {
			disturbed = append(disturbed, p)
			continue
		}
		// The failed sessions carried at most non-best candidates for
		// this prefix: selection cannot change anywhere, so only vantage
		// tables (which retain full candidate sets) need maintenance.
		recomputed := false
		fallback := false
		for _, l := range links {
			for _, dir := range [2][2]int32{{l[0], l[1]}, {l[1], l[0]}} {
				v, u := dir[0], dir[1]
				if !e.vantage[int(v)] {
					continue
				}
				slot := e.tables[int(v)]
				slot.mu.Lock()
				if slot.rib.CandidateFrom(p, e.asns[u]) != nil {
					if e.writableFor(int(v), slot, p).WithdrawInto(e.asns[u], p, carve) {
						// The removed candidate was selected: the forest
						// said otherwise, so fall back to a full
						// re-convergence (captures rebuild the entry).
						fallback = true
					}
					recomputed = true
				}
				slot.mu.Unlock()
			}
		}
		if fallback {
			disturbed = append(disturbed, p)
			continue
		}
		if recomputed {
			delta.Recomputed++
		}
	}
	return disturbed
}

// reconverge applies the events' session changes to one prefix and runs
// the activation loop from the reconstructed pre-event state. It returns
// the catchment shift, the reach change, the number of ASes it
// materialized (whose state was rewritten), whether any re-evaluated
// session's candidate changed at all — an AS was materialized or a
// session was deferred — and whether the prefix converged within
// budget. unconverged says the prefix is in the unconverged set: its
// forest row cannot be trusted, so nothing is deferred.
func (en *Engine) reconverge(st *workerState, prefix netx.Prefix, unconverged bool, events []Event, rc *recon) (PrefixShift, ReachDelta, int, bool, bool) {
	e := en.e
	st.reset()
	pr := newPrefixRecon(rc, st, prefix, unconverged)
	st.curPrefix = prefix
	st.originIdx = pr.originIdx

	// Seed: re-evaluate exactly the sessions each event touches.
	for _, ev := range events {
		switch ev.Kind {
		case EventLinkFail, EventLinkRestore:
			ai, bi := int32(e.idx[ev.A]), int32(e.idx[ev.B])
			pr.sessionReseed(st, ai, bi)
			pr.sessionReseed(st, bi, ai)
		case EventLocalPref:
			if ev.PerPrefix && ev.Prefix != prefix {
				continue
			}
			xi, ni := int32(e.idx[ev.AS]), int32(e.idx[ev.Neighbor])
			pr.sessionReseed(st, ni, xi)
		case EventSAToggle, EventNoUpstream:
			if ev.Prefix != prefix {
				continue
			}
			oi := pr.originIdx
			for _, w := range e.nbrs[oi] {
				pr.sessionReseed(st, oi, w)
			}
		}
	}

	// Drain: standard event-driven propagation, materializing state only
	// where an update can change a best route.
	budget := e.budget * (len(e.asns) + e.topo.Graph.NumEdges())
	activations := 0
	converged := true
	for {
		u := st.pop()
		if u < 0 {
			break
		}
		activations++
		if activations > budget {
			converged = false
			break
		}
		st.inQueue[u] = false
		best := st.best[u]
		uASN := e.asns[u]
		// The ingress class of u's best, once per activation. Every link
		// event was seeded above, so a queued AS's best never crosses a
		// link that is down and the current adjacency classifies it.
		var ingress asgraph.Relationship
		if best != nil && !best.IsLocal() {
			ingress, _ = e.sessionTo(u, st.bestFrom[u])
		}
		for j, v := range e.nbrs[u] {
			relVtoU, vslot := e.sess[u][j].rel, e.back[u][j]
			var rNew *bgp.Route
			if vASN := e.asns[v]; best != nil && !best.Path.Contains(vASN) && v != pr.originIdx &&
				exportAllowed(uASN, vASN, relVtoU, ingress, best, prefix, e.pols[u]) {
				rNew = e.buildAnnouncement(u, v, vslot, relVtoU, best, prefix, e.pols[u], e.pols[v], st)
			}
			var rOld *bgp.Route
			if st.seen[v] == st.version {
				rOld = st.cs.at(v, vslot)
			} else {
				rOld = pr.candOld(v, u, relVtoU, vslot)
			}
			if !routesEquivalent(rOld, rNew) {
				pr.update(st, v, u, rNew)
			}
		}
	}

	st.statActivations += activations
	changed := len(st.touched) > 0 || len(st.deferred) > 0
	if len(st.touched) == 0 {
		// No session the events name moved anyone's best here: the forest
		// row, the reach count and every vantage entry stay as they are —
		// and stay shared with the clone family.
		return PrefixShift{}, ReachDelta{}, 0, changed, converged
	}
	shift, reach := en.captureIncremental(st, prefix)
	return shift, reach, len(st.touched), changed, converged
}

// captureIncremental writes the touched slice of the re-converged state
// back into vantage tables, reach counts and the best forest, returning
// the prefix's catchment shift and reach change.
func (en *Engine) captureIncremental(st *workerState, prefix netx.Prefix) (PrefixShift, ReachDelta) {
	e := en.e
	pi := e.prefixIdx[prefix]
	row := e.track[pi]
	shared := e.trackShared != nil && e.trackShared[pi]
	if journaled := e.journal.rowPre(pi, row, shared, e.reachCounts[pi]); shared || journaled {
		// The row is visible from an engine clone, or has just become the
		// journal's pre-image: the rewrite below goes to a copy (only this
		// worker owns prefix pi). This is the one place a forest row is
		// copied; under a checkpoint it is carved from the region.
		row = copyInto(e.carving().int32s(len(row)), row)
		e.track[pi] = row
		if shared {
			e.trackShared[pi] = false
			mCowForestRow.Inc()
		}
	}
	// Vantage is st's buffer: the caller copies it out before st moves on.
	shift := PrefixShift{Prefix: prefix, Origin: e.topo.PrefixOrigin[prefix], Vantage: st.capVantage[:0]}
	reachDelta := 0
	for _, i := range st.touched {
		oldFrom := row[i]
		newFrom := st.bestFrom[i]
		if st.best[i] == nil {
			newFrom = trackNone
		}
		if oldFrom != newFrom {
			shift.Shifted++
			if oldFrom != trackNone && newFrom == trackNone {
				shift.Lost++
			}
			if oldFrom == trackNone && newFrom != trackNone {
				shift.Gained++
			}
			if e.vantage[int(i)] {
				shift.Vantage = append(shift.Vantage, e.asns[i])
			}
		}
		if oldFrom != trackNone {
			reachDelta--
		}
		if newFrom != trackNone {
			reachDelta++
		}
		row[i] = newFrom
		if !e.vantage[int(i)] {
			continue
		}
		e.captureVantage(st, i, prefix)
	}
	before := int(e.reachCounts[pi])
	e.reachCounts[pi] += int64(reachDelta)
	// Touched order is propagation order; vantage identities sort for a
	// deterministic record.
	slices.Sort(shift.Vantage)
	st.capVantage = shift.Vantage
	return shift, ReachDelta{Prefix: prefix, Before: before, After: before + reachDelta}
}

// DiffResults compares two results route by route and returns a human-
// readable list of differences (empty means bit-identical tables, reach
// counts and convergence status). The scenario property tests use it to
// prove incremental re-convergence matches full resimulation.
func DiffResults(a, b *Result) []string {
	var diffs []string
	add := func(format string, args ...interface{}) {
		if len(diffs) < 50 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	for asn, ta := range a.Tables {
		tb, ok := b.Tables[asn]
		if !ok {
			add("table %v missing in b", asn)
			continue
		}
		pa, pb := ta.Prefixes(), tb.Prefixes()
		if len(pa) != len(pb) {
			add("table %v: %d prefixes vs %d", asn, len(pa), len(pb))
		}
		for _, p := range pa {
			ca, cb := ta.Candidates(p), tb.Candidates(p)
			if len(ca) != len(cb) {
				add("table %v %v: %d candidates vs %d", asn, p, len(ca), len(cb))
				continue
			}
			for i := range ca {
				if !routeIdentical(ca[i], cb[i]) {
					add("table %v %v cand %d: %v vs %v", asn, p, i, ca[i], cb[i])
				}
			}
			if !routeIdentical(ta.Best(p), tb.Best(p)) {
				add("table %v %v best: %v vs %v", asn, p, ta.Best(p), tb.Best(p))
			}
		}
		for _, p := range pb {
			if len(ta.Candidates(p)) == 0 {
				add("table %v %v missing in a", asn, p)
			}
		}
	}
	for asn := range b.Tables {
		if _, ok := a.Tables[asn]; !ok {
			add("table %v missing in a", asn)
		}
	}
	if len(a.ReachCount) != len(b.ReachCount) {
		add("reach: %d prefixes vs %d", len(a.ReachCount), len(b.ReachCount))
	}
	for p, ra := range a.ReachCount {
		if rb, ok := b.ReachCount[p]; !ok {
			add("reach %v missing in b", p)
		} else if ra != rb {
			add("reach %v: %d vs %d", p, ra, rb)
		}
	}
	for p := range b.ReachCount {
		if _, ok := a.ReachCount[p]; !ok {
			add("reach %v missing in a", p)
		}
	}
	if len(a.Unconverged) != len(b.Unconverged) {
		add("unconverged: %d vs %d", len(a.Unconverged), len(b.Unconverged))
	}
	return diffs
}

// routeIdentical is strict route equality: every attribute, communities
// in order.
func routeIdentical(a, b *bgp.Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && a.Path.Equal(b.Path) && a.NextHop == b.NextHop &&
		a.LocalPref == b.LocalPref && a.MED == b.MED && a.Origin == b.Origin &&
		a.FromIBGP == b.FromIBGP && a.IGPMetric == b.IGPMetric && a.RouterID == b.RouterID &&
		communitiesEqual(a.Communities, b.Communities)
}
