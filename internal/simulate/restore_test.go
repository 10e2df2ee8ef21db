package simulate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
)

// storedState is what a cache entry holds of a converged engine: copies
// of its tables and reach counts, and its forest in slot form.
func storedState(en *Engine) (*Result, [][]int32) {
	live := en.Result()
	res := &Result{
		Tables:     make(map[bgp.ASN]*bgp.RIB, len(live.Tables)),
		ReachCount: make(map[netx.Prefix]int, len(live.ReachCount)),
	}
	for asn, rib := range live.Tables {
		res.Tables[asn] = rib.Clone()
	}
	for p, c := range live.ReachCount {
		res.ReachCount[p] = c
	}
	return res, en.ForestSlots()
}

// TestRestoreEngineMatchesCold: an engine restored from a converged
// engine's stored state is that engine — same tables, same reach counts,
// same forest rows — and stays so under work: fifty random batches over
// all seven event kinds, each applied to a clone of either base, report
// byte-equal Deltas. It converges nothing on the way.
func TestRestoreEngineMatchesCold(t *testing.T) {
	seen := make(map[EventKind]int)
	for _, seed := range []int64{1, 2, 3} {
		topo, opts := buildTestTopo(t, 200, seed)
		cold, err := NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, forest := storedState(cold)
		runs := mConvergeRuns.Value()
		restored, err := RestoreEngine(topo, opts, res, forest)
		if err != nil {
			t.Fatalf("seed %d: a converged engine's own state was refused: %v", seed, err)
		}
		if got := mConvergeRuns.Value() - runs; got != 0 {
			t.Fatalf("seed %d: restore ran %d convergence passes", seed, got)
		}
		if diffs := DiffResults(cold.Result(), restored.Result()); len(diffs) > 0 {
			t.Fatalf("seed %d: restored tables differ: %v", seed, diffs[:min(3, len(diffs))])
		}
		if diffs := forestDiff(cold, restored); len(diffs) > 0 {
			t.Fatalf("seed %d: restored forest differs: %v", seed, diffs[:min(3, len(diffs))])
		}
		if !reflect.DeepEqual(cold.ForestSlots(), restored.ForestSlots()) {
			t.Fatalf("seed %d: slot form does not round-trip", seed)
		}

		rng := rand.New(rand.NewSource(seed))
		fresh := 0
		for trial := 0; trial < 50; trial++ {
			sc := Scenario{Name: fmt.Sprintf("seed%d/trial%d", seed, trial), Events: randomBatch(t, rng, topo.Clone(), &fresh)}
			var out [2][]byte
			var peers [2]map[bgp.ASN]int
			for k, base := range []*Engine{cold, restored} {
				delta, err := base.Clone().Apply(sc)
				if err != nil {
					t.Fatalf("%s %+v: %v", sc.Name, sc.Events, err)
				}
				if out[k], err = json.Marshal(delta); err != nil {
					t.Fatal(err)
				}
				peers[k] = delta.PeerBestChanged
			}
			if !bytes.Equal(out[0], out[1]) || !reflect.DeepEqual(peers[0], peers[1]) {
				t.Fatalf("%s %+v: Delta differs between the cold and the restored base\n cold     %s\n restored %s",
					sc.Name, sc.Events, out[0], out[1])
			}
			for _, ev := range sc.Events {
				seen[ev.Kind]++
			}
		}
	}
	for _, k := range allEventKinds {
		if seen[k] == 0 {
			t.Errorf("no batch drew a %s event", k)
		}
	}
}

// TestRestoreEngineRefusesBadState: each way stored state can disagree
// with the topology, with itself or with the tables is an ErrRestore,
// not an engine that answers wrongly or panics later.
func TestRestoreEngineRefusesBadState(t *testing.T) {
	topo, opts := buildTestTopo(t, 120, 4)
	cold, err := NewEngine(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := cold.e

	// A prefix row with an AS a whose next hop b is not the origin, and a
	// vantage v that could have learned the route from another neighbor u
	// whose own path avoids v.
	var pi int
	var a, b int32 = -1, -1
	for pi = range e.track {
		row := e.track[pi]
		for i, from := range row {
			if from != trackNone && from != int32(i) && row[from] != from {
				a, b = int32(i), from
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	if a < 0 {
		t.Fatal("no two-hop path in the forest")
	}
	prefix := e.prefixes[pi]
	reaches := func(row []int32, from, via int32) bool {
		for j := from; row[j] != j; j = row[j] {
			if j == via {
				return true
			}
		}
		return false
	}
	var vpi int
	var v, u int32 = -1, -1
	for vpi = range e.track {
		row := e.track[vpi]
		for vi := range e.tables {
			for _, nb := range e.nbrs[vi] {
				if row[vi] != trackNone && row[vi] != int32(vi) && nb != row[vi] &&
					row[nb] != trackNone && !reaches(row, nb, int32(vi)) {
					v, u = int32(vi), nb
				}
			}
		}
		if v >= 0 {
			break
		}
	}
	if v < 0 {
		t.Fatal("no vantage with an alternative loop-free neighbor")
	}

	slot := func(at, nb int32) int32 { return slotBase + int32(slotOf(e.nbrs[at], nb)) }
	var otherOrigin int32
	for otherOrigin = 0; e.track[pi][otherOrigin] == otherOrigin; otherOrigin++ {
	}
	cases := []struct {
		name string
		edit func(res *Result, forest [][]int32) [][]int32
	}{
		{"a row short", func(_ *Result, f [][]int32) [][]int32 { return f[1:] }},
		{"a cell short", func(_ *Result, f [][]int32) [][]int32 { f[pi] = f[pi][1:]; return f }},
		{"slot past the adjacency", func(_ *Result, f [][]int32) [][]int32 {
			f[pi][a] = slotBase + int32(len(e.nbrs[a]))
			return f
		}},
		{"negative code", func(_ *Result, f [][]int32) [][]int32 { f[pi][a] = -3; return f }},
		{"second origin", func(_ *Result, f [][]int32) [][]int32 { f[pi][otherOrigin] = SlotOrigin; return f }},
		{"origin without its code", func(_ *Result, f [][]int32) [][]int32 {
			o := e.idx[topo.PrefixOrigin[prefix]]
			f[pi][o] = slotBase
			return f
		}},
		{"two ASes pointing at each other", func(_ *Result, f [][]int32) [][]int32 {
			f[pi][b] = slot(b, a)
			return f
		}},
		{"hop into an AS with no route", func(res *Result, f [][]int32) [][]int32 {
			f[pi][b] = SlotNone
			res.ReachCount[prefix]--
			return f
		}},
		{"reach count off by one", func(res *Result, f [][]int32) [][]int32 { res.ReachCount[prefix]++; return f }},
		{"reach count missing", func(res *Result, f [][]int32) [][]int32 { delete(res.ReachCount, prefix); return f }},
		{"vantage hop differs from its table", func(_ *Result, f [][]int32) [][]int32 {
			f[vpi][v] = slot(v, u)
			return f
		}},
		{"vantage table missing", func(res *Result, f [][]int32) [][]int32 {
			delete(res.Tables, e.asns[v])
			return f
		}},
		{"table entry for a prefix the topology lacks", func(res *Result, f [][]int32) [][]int32 {
			stray := netx.MustParsePrefix("203.0.113.0/24")
			res.Tables[e.asns[v]].Upsert(e.asns[u], &bgp.Route{Prefix: stray, Path: bgp.Path{e.asns[u]}})
			return f
		}},
	}
	for _, tc := range cases {
		res, forest := storedState(cold)
		if _, err := RestoreEngine(topo, opts, res, tc.edit(res, forest)); !errors.Is(err, ErrRestore) {
			t.Errorf("%s: got %v, want an ErrRestore", tc.name, err)
		}
	}
	// The fixture itself is sound: untouched, it restores.
	res, forest := storedState(cold)
	if _, err := RestoreEngine(topo, opts, res, forest); err != nil {
		t.Fatalf("unedited state refused: %v", err)
	}
}
