package simulate

import (
	"fmt"
	"slices"
	"testing"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// resultSnapshot deep-copies the observable engine state so later
// mutations cannot alias it.
func resultSnapshot(en *Engine) *Result {
	res := en.Result()
	cp := &Result{
		Tables:      make(map[bgp.ASN]*bgp.RIB, len(res.Tables)),
		ReachCount:  make(map[netx.Prefix]int, len(res.ReachCount)),
		Unconverged: append([]netx.Prefix(nil), res.Unconverged...),
	}
	for asn, rib := range res.Tables {
		cp.Tables[asn] = rib.Clone()
	}
	for p, c := range res.ReachCount {
		cp.ReachCount[p] = c
	}
	return cp
}

// requireRolledBack holds en, just rolled back, to "never applied":
// tables and reach counts equal the snapshot's, the forest equals the
// untouched engine's row by row, and no buffer on the free list is still
// a live row.
func requireRolledBack(t *testing.T, name string, en, untouched *Engine, pristine *Result) {
	t.Helper()
	if diffs := DiffResults(pristine, en.Result()); len(diffs) > 0 {
		t.Fatalf("%s: state not restored: %s", name, diffs[0])
	}
	if diffs := forestDiff(en, untouched); len(diffs) > 0 {
		t.Fatalf("%s: forest not restored: %s", name, diffs[0])
	}
	free := make(map[*int32]bool, len(en.e.rowFree))
	for _, buf := range en.e.rowFree {
		if free[&buf[0]] {
			t.Fatalf("%s: one buffer is on the free list twice", name)
		}
		free[&buf[0]] = true
	}
	for pi, row := range en.e.track {
		if free[&row[0]] {
			t.Fatalf("%s: forest row %d is a buffer Rollback recycled", name, pi)
		}
	}
}

// TestCheckpointRollbackRestoresState: Checkpoint → Apply(link events) →
// Rollback restores tables, reach counts, the best forest and the
// unconverged set bit for bit, and the engine remains usable (a second
// Apply matches a fresh engine's).
func TestCheckpointRollbackRestoresState(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 11)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	untouched, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(en)

	edges := topo.Graph.Edges()
	if len(edges) < 20 {
		t.Fatal("topology too small")
	}
	for trial := 0; trial < 8; trial++ {
		ev := edges[(trial*37)%len(edges)]
		sc := Scenario{Name: fmt.Sprintf("fail-%d", trial), Events: []Event{FailLink(ev.A, ev.B)}}
		en.Checkpoint()
		delta, err := en.Apply(sc)
		if err != nil {
			t.Fatalf("apply %v: %v", sc.Name, err)
		}
		_ = delta
		if !en.Rollback() {
			t.Fatalf("rollback %v failed", sc.Name)
		}
		requireRolledBack(t, sc.Name, en, untouched, pristine)
		// The restored link must be back in the graph.
		if topoRel := en.Topology().Graph.Rel(ev.A, ev.B); topoRel == asgraph.RelNone {
			t.Fatalf("trial %d: link %v-%v not restored", trial, ev.A, ev.B)
		}
	}

	// After all the checkpoint/rollback churn, a real Apply must still
	// match a fresh engine applying the same scenario.
	ev := edges[3]
	sc := Scenario{Events: []Event{FailLink(ev.A, ev.B)}}
	if _, err := en.Apply(sc); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Apply(sc); err != nil {
		t.Fatal(err)
	}
	if diffs := DiffResults(fresh.Result(), en.Result()); len(diffs) > 0 {
		t.Fatalf("post-rollback apply differs: %s", diffs[0])
	}
	if diffs := forestDiff(fresh, en); len(diffs) > 0 {
		t.Fatalf("post-rollback apply differs: %s", diffs[0])
	}
}

// TestRollbackRecyclesForestRows: a worker clone that applies and rolls
// back one link failure after another — the sweep executor's loop —
// obtains from the allocator no more forest-row buffers than its largest
// single scenario wrote, however many scenarios it runs; every rollback
// is "never applied" row by row; and a buffer a Clone taken between Apply
// and Rollback still reads is not recycled under it.
func TestRollbackRecyclesForestRows(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 11)
	opts := Options{VantagePoints: vantage, Parallelism: 1}
	base, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	pristine := resultSnapshot(base)
	worker := base.Clone()
	edges := topo.Graph.Edges()
	largest := 0
	for trial := 0; trial < 24; trial++ {
		ev := edges[(trial*53)%len(edges)]
		name := fmt.Sprintf("fail-%d", trial)
		worker.Checkpoint()
		if _, err := worker.Apply(Scenario{Name: name, Events: []Event{FailLink(ev.A, ev.B)}}); err != nil {
			t.Fatal(err)
		}
		wrote := len(worker.e.journal.rows)
		largest = max(largest, wrote)
		inUse := 0
		for pi := range worker.e.track {
			if !worker.e.trackShared[pi] {
				inUse++
			}
		}
		if inUse != wrote {
			t.Fatalf("%s: %d private rows after an Apply that journaled %d", name, inUse, wrote)
		}
		if !worker.Rollback() {
			t.Fatalf("%s: rollback refused", name)
		}
		requireRolledBack(t, name, worker, base, pristine)
		// Every buffer the worker ever allocated is back on the free
		// list now, so its length is the allocation count.
		if got := len(worker.e.rowFree); got > largest {
			t.Fatalf("%s: %d row buffers allocated so far, the largest scenario wrote %d", name, got, largest)
		}
	}
	if largest == 0 {
		t.Fatal("no sampled link failure rewrote a forest row")
	}

	// Apply, Clone, Rollback: the clone holds the post-Apply rows.
	ev := edges[53%len(edges)]
	sc := Scenario{Name: "held", Events: []Event{FailLink(ev.A, ev.B)}}
	worker.Checkpoint()
	if _, err := worker.Apply(sc); err != nil {
		t.Fatal(err)
	}
	held := worker.Clone()
	if !worker.Rollback() {
		t.Fatal("rollback refused")
	}
	requireRolledBack(t, "rolled back under a clone", worker, base, pristine)
	// Churn the worker so any wrongly recycled buffer gets overwritten.
	for trial := 0; trial < 4; trial++ {
		e2 := edges[(trial*31+7)%len(edges)]
		worker.Checkpoint()
		if _, err := worker.Apply(Scenario{Events: []Event{FailLink(e2.A, e2.B)}}); err != nil {
			t.Fatal(err)
		}
		if !worker.Rollback() {
			t.Fatal("rollback refused")
		}
	}
	mutated := topo.Clone()
	if err := sc.ApplyToTopology(mutated); err != nil {
		t.Fatal(err)
	}
	requireSameForest(t, "clone taken before the rollback", held, mutated, opts)
}

// TestJournalEntriesAreUnique: the journal's slices stand in for maps on
// the strength of "each prefix is recorded once". The guard that holds
// them to it is always on: a second pre-image of one prefix is refused
// and the first stands, for rows and for unconverged marks alike.
func TestJournalEntriesAreUnique(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 120, 5)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	en.Checkpoint()
	j := en.e.journal
	first, second := []int32{1}, []int32{2}
	last := len(en.e.prefixes) - 1
	if !j.rowPre(last, first, true, 7) || !j.rowPre(0, first, false, 3) {
		t.Fatal("first pre-image of a prefix refused")
	}
	if j.rowPre(last, second, false, 9) {
		t.Fatal("second pre-image of one prefix accepted")
	}
	if len(j.rows) != 2 || &j.rows[0].row[0] != &first[0] || !j.rows[0].shared || j.rows[0].reach != 7 {
		t.Fatalf("journal rows after a refused duplicate: %+v", j.rows)
	}
	p := en.e.prefixes[0]
	j.unconvPre(p, true)
	j.unconvPre(p, false)
	if len(j.unconvWas) != 1 || !j.unconvWas[0].was {
		t.Fatalf("unconverged marks after a duplicate: %+v", j.unconvWas)
	}
	// No armed journal, or one a batch made unsupported: nothing is
	// recorded and nobody is told to copy.
	var none *applyJournal
	if none.rowPre(0, first, true, 1) {
		t.Fatal("nil journal claimed a pre-image")
	}
	j.supported = false
	if j.rowPre(1, first, true, 1) {
		t.Fatal("unsupported journal claimed a pre-image")
	}
}

// linkCancelShapes returns the two journalable batches whose link events
// cancel out on one pair: an existing link failed and restored with its
// own relationship, and a new peering opened and failed again.
func linkCancelShapes(t *testing.T, topo *topogen.Topology) []Scenario {
	t.Helper()
	e := topo.Graph.Edges()[7]
	x, y := topo.Order[0], topo.Order[len(topo.Order)/2]
	for _, x = range topo.Order {
		if x != y && topo.Graph.Rel(x, y) == asgraph.RelNone {
			break
		}
	}
	if x == y || topo.Graph.Rel(x, y) != asgraph.RelNone {
		t.Fatal("no unlinked pair")
	}
	return []Scenario{
		{Name: "fail,restore", Events: []Event{FailLink(e.A, e.B), RestoreLink(e.A, e.B, e.Rel)}},
		{Name: "restore,fail", Events: []Event{RestoreLink(x, y, asgraph.RelPeer), FailLink(x, y)}},
	}
}

// TestRollbackUndoesLinkEventsInReverse: a journaled batch may fail and
// restore the same pair, in either order; Rollback has to undo the graph
// mutations last-first, or the pair ends up in the state its first event
// left rather than the one the checkpoint saw.
func TestRollbackUndoesLinkEventsInReverse(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 200, 11)
	opts := Options{VantagePoints: vantage, Parallelism: 1}
	untouched, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range linkCancelShapes(t, topo) {
		t.Run(sc.Name, func(t *testing.T) {
			en := untouched.Clone()
			pristine := resultSnapshot(en)
			en.Checkpoint()
			if _, err := en.Apply(sc); err != nil {
				t.Fatal(err)
			}
			if !en.Rollback() {
				t.Fatal("rollback refused a link-only batch")
			}
			if got, want := en.Topology().Graph.Edges(), topo.Graph.Edges(); !slices.Equal(got, want) {
				t.Fatalf("graph not restored: %d edges, want %d", len(got), len(want))
			}
			requireRolledBack(t, sc.Name, en, untouched, pristine)
		})
	}
}

// TestCheckpointDoubleApplyRefused: a second Apply under the same
// checkpoint would mix pre-images of the first batch with link deltas
// of the second; Rollback must refuse rather than restore a hybrid.
func TestCheckpointDoubleApplyRefused(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 120, 5)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	edges := topo.Graph.Edges()
	en.Checkpoint()
	if _, err := en.Apply(Scenario{Events: []Event{FailLink(edges[0].A, edges[0].B)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := en.Apply(Scenario{Events: []Event{FailLink(edges[1].A, edges[1].B)}}); err != nil {
		t.Fatal(err)
	}
	if en.Rollback() {
		t.Fatal("rollback claimed success after two applies under one checkpoint")
	}
}

// TestCheckpointUnsupportedBatch: non-link events consume the
// checkpoint and Rollback reports false (caller must re-clone).
func TestCheckpointUnsupportedBatch(t *testing.T) {
	topo, vantage := equivalenceTopo(t, 120, 3)
	en, err := NewEngine(topo, Options{VantagePoints: vantage, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var target *Engine = en
	// Pick any originated prefix.
	var ev Event
	for p := range topo.PrefixOrigin {
		ev = WithdrawPrefix(p)
		break
	}
	target.Checkpoint()
	if _, err := target.Apply(Scenario{Events: []Event{ev}}); err != nil {
		t.Fatal(err)
	}
	if target.Rollback() {
		t.Fatal("rollback claimed success for an unsupported batch")
	}
	// An unused checkpoint (validation failure) reports success: the
	// engine never left the checkpointed state.
	target.Checkpoint()
	if _, err := target.Apply(Scenario{Events: []Event{FailLink(1, 2)}}); err == nil {
		t.Fatal("expected validation error")
	}
	if !target.Rollback() {
		t.Fatal("rollback after validation failure should be a clean no-op")
	}
}
