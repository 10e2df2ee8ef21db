package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/netx"
)

func cowPrefix(t *testing.T, s string) netx.Prefix {
	t.Helper()
	p, err := netx.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cowRoute(prefix netx.Prefix, lp uint32) *Route {
	return &Route{Prefix: prefix, LocalPref: lp, Path: Path{100, 200}}
}

// TestCloneCOWIsolation: mutations through a COW clone never reach the
// source table or sibling clones, across Upsert, Withdraw and
// DropPrefix.
func TestCloneCOWIsolation(t *testing.T) {
	p1 := cowPrefix(t, "10.0.0.0/24")
	p2 := cowPrefix(t, "10.0.1.0/24")
	src := NewRIB(64512)
	src.Upsert(1, cowRoute(p1, 100))
	src.Upsert(2, cowRoute(p1, 200))
	src.Upsert(1, cowRoute(p2, 100))

	a := src.CloneCOW()
	b := src.CloneCOW()

	// Mutate p1 through a: replace one candidate, withdraw the other.
	a.Upsert(1, cowRoute(p1, 999))
	a.Withdraw(2, p1)
	// Drop p2 through b.
	b.DropPrefix(p2)
	// New prefix through b.
	p3 := cowPrefix(t, "10.0.2.0/24")
	b.Upsert(3, cowRoute(p3, 50))

	// Source unchanged.
	if got := len(src.Candidates(p1)); got != 2 {
		t.Fatalf("source p1 candidates = %d", got)
	}
	if src.Best(p1).LocalPref != 200 {
		t.Fatalf("source p1 best = %+v", src.Best(p1))
	}
	if !src.Has(p2) || src.Has(p3) {
		t.Fatal("source prefix set changed")
	}
	// a sees its own edits only.
	if got := len(a.Candidates(p1)); got != 1 || a.Best(p1).LocalPref != 999 {
		t.Fatalf("clone a p1: %d candidates, best %+v", got, a.Best(p1))
	}
	if !a.Has(p2) {
		t.Fatal("clone a lost p2")
	}
	// b sees its own edits only.
	if b.Has(p2) || !b.Has(p3) {
		t.Fatal("clone b prefix set wrong")
	}
	if got := len(b.Candidates(p1)); got != 2 {
		t.Fatalf("clone b p1 candidates = %d", got)
	}
	// Chained COW: a clone of a (post-edit) keeps a's view.
	c := a.CloneCOW()
	a2 := a.CloneCOW() // a is retired now; c and a2 share its entries
	c.Upsert(7, cowRoute(p1, 1))
	if got := len(a2.Candidates(p1)); got != 1 || a2.Best(p1).LocalPref != 999 {
		t.Fatalf("sibling clone polluted: %d candidates, best %+v", got, a2.Best(p1))
	}
}

// ribView renders everything the readers of t return — Len, NumRoutes,
// Prefixes, the Each* walks, and Has / Best / Candidates / CandidateFrom
// for every prefix and neighbor of the model's universe — with routes by
// pointer identity, so two tables render equal exactly when no reader
// can tell them apart.
func ribView(t *RIB, prefixes []netx.Prefix, nbrs []ASN) string {
	var b strings.Builder
	ptrs := func(rs []*Route) string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprintf("%p", r)
		}
		return fmt.Sprint(out)
	}
	fmt.Fprintf(&b, "len=%d routes=%d prefixes=%v\n", t.Len(), t.NumRoutes(), t.Prefixes())
	t.EachEntry(func(p netx.Prefix, ns []ASN, rs []*Route, best *Route) {
		fmt.Fprintf(&b, "entry %v %v %s %p\n", p, ns, ptrs(rs), best)
	})
	t.EachCandidate(func(p netx.Prefix, from ASN, r *Route) { fmt.Fprintf(&b, "cand %v %d %p\n", p, from, r) })
	t.EachBest(func(p netx.Prefix, r *Route) { fmt.Fprintf(&b, "best %v %p\n", p, r) })
	fmt.Fprintf(&b, "bestroutes %s\n", ptrs(t.BestRoutes()))
	for _, p := range prefixes {
		fmt.Fprintf(&b, "%v has=%v best=%p cands=%s from=", p, t.Has(p), t.Best(p), ptrs(t.Candidates(p)))
		for _, n := range nbrs {
			fmt.Fprintf(&b, "%p ", t.CandidateFrom(p, n))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzCloneCOWModel is the model check of the layered table: a seeded
// random sequence of every mutator — Withdraw half the time through
// WithdrawInto on the COW copy — applied to t.CloneCOW() and to the
// deep t.Clone(), must leave every reader equal between the two and t
// itself unchanged — and the same again one clone level deeper, where
// the copy starts from a flattened parent layer. Each table saves its
// own entry pre-images, each restored once and last-first as the
// rollback journal does; those saved at the first level and still
// pending at the second are restored over a parent layer replaced
// since. Goroutines read t and the first-level copy's source throughout
// (run with -race): a parent layer is only ever read. Seeds 1–3 are the
// corpus plain go test runs.
func FuzzCloneCOWModel(f *testing.F) {
	var prefixes []netx.Prefix
	for i := 0; i < 24; i++ {
		p, err := netx.ParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))
		if err != nil {
			f.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	nbrs := []ASN{1, 2, 3, 5, 8}
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cloneCOWModel(t, seed, prefixes, nbrs)
	})
}

// TestRevertReadThroughEntry: saving and restoring an entry the table
// reads through to allocates nothing — a save, a write and a restore
// cost what the write alone does — and the restore leaves the own layer
// without the prefix, reading through again.
func TestRevertReadThroughEntry(t *testing.T) {
	p := cowPrefix(t, "10.0.0.0/24")
	src := NewRIB(64512)
	src.Upsert(1, cowRoute(p, 100))
	src.Upsert(2, cowRoute(p, 200))
	cow := src.CloneCOW()
	r := cowRoute(p, 300)
	write := testing.AllocsPerRun(100, func() {
		cow.Upsert(1, r)
		delete(cow.entries, p)
	})
	cycle := testing.AllocsPerRun(100, func() {
		img := cow.SaveEntry(p)
		cow.Upsert(1, r)
		cow.RevertEntry(p, img)
	})
	if write == 0 || cycle != write {
		t.Errorf("save, write and restore allocate %.1f objects, the write alone %.1f", cycle, write)
	}
	img := cow.SaveEntry(p)
	cow.Withdraw(2, p)
	cow.RevertEntry(p, img)
	if _, own := cow.entries[p]; own {
		t.Fatal("the restored read-through entry is still in the own layer")
	}
	if cow.Best(p) != src.Best(p) || len(cow.Candidates(p)) != 2 {
		t.Fatalf("restored entry reads %d candidates, best %+v", len(cow.Candidates(p)), cow.Best(p))
	}
}

func cloneCOWModel(t *testing.T, seed int64, prefixes []netx.Prefix, nbrs []ASN) {
	rng := rand.New(rand.NewSource(seed))
	base := NewRIB(64512)
	for _, p := range prefixes[:16] {
		for _, n := range nbrs {
			if rng.Intn(2) == 0 {
				base.Upsert(n, cowRoute(p, uint32(rng.Intn(300))))
			}
		}
	}
	baseView := ribView(base, prefixes, nbrs)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := ribView(base, prefixes, nbrs); got != baseView {
					t.Error("a concurrent reader saw the parent table change")
					return
				}
			}
		}()
	}

	poison := cowRoute(prefixes[0], 1000)
	// pending are pre-images saved and not yet restored, one per table.
	type image struct {
		p         netx.Prefix
		cow, deep EntryImage
	}
	var pending []image
	// revert restores the latest pending image on both tables, consuming
	// it: last-first, as the rollback journal does, so an early save can
	// outlive the level it was made at.
	revert := func(cow, deep *RIB) netx.Prefix {
		img := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		cow.RevertEntry(img.p, img.cow)
		deep.RevertEntry(img.p, img.deep)
		return img.p
	}
	// mutate applies one random operation to both tables and holds
	// their return values and views against each other.
	mutate := func(step int, cow, deep *RIB) {
		p := prefixes[rng.Intn(len(prefixes))]
		n := nbrs[rng.Intn(len(nbrs))]
		var op string
		var a, b bool
		switch k := rng.Intn(6); k {
		case 0, 1:
			r := cowRoute(p, uint32(rng.Intn(300)))
			op, a, b = "Upsert", cow.Upsert(n, r), deep.Upsert(n, r)
		case 2:
			if rng.Intn(2) == 0 {
				op, a, b = "Withdraw", cow.Withdraw(n, p), deep.Withdraw(n, p)
				break
			}
			// The COW copy keeps a read-through entry's copy in storage
			// of the caller's, as the simulator's link failures do; the
			// storage comes poisoned, so whatever the table does not
			// overwrite shows.
			op = "WithdrawInto"
			a = cow.WithdrawInto(n, p, func(k int) (*EntrySlot, []ASN, []*Route) {
				into := &EntrySlot{e: ribEntry{nbrs: []ASN{99}, best: poison}}
				nbrs, routes := make([]ASN, k), make([]*Route, k)
				for i := range k {
					nbrs[i], routes[i] = 99, poison
				}
				return into, nbrs, routes
			})
			b = deep.Withdraw(n, p)
		case 3:
			op, a, b = "DropPrefix", cow.DropPrefix(p), deep.DropPrefix(p)
		case 4:
			var ns []ASN
			var rs []*Route
			for _, n := range nbrs { // ascending; sometimes empty: a drop
				if rng.Intn(3) == 0 {
					ns, rs = append(ns, n), append(rs, cowRoute(p, uint32(rng.Intn(300))))
				}
			}
			var best *Route
			if len(rs) > 0 {
				best = rs[rng.Intn(len(rs))]
			}
			// Each table owns its slices, ending at their capacity as
			// carved ones do; the COW copy keeps the entry in storage of
			// the caller's half the time, as the simulator's capture path
			// does.
			var into *EntrySlot
			if rng.Intn(2) == 0 {
				into = new(EntrySlot)
			}
			op = "InstallOwned"
			cow.InstallOwned(p, into, slices.Clip(slices.Clone(ns)), slices.Clip(slices.Clone(rs)), best)
			deep.InstallOwned(p, nil, slices.Clip(slices.Clone(ns)), slices.Clip(slices.Clone(rs)), best)
		case 5:
			if len(pending) == 0 || rng.Intn(3) != 0 {
				op = "SaveEntry"
				pending = append(pending, image{p, cow.SaveEntry(p), deep.SaveEntry(p)})
				break
			}
			op, p = "RevertEntry", revert(cow, deep)
		}
		if a != b {
			t.Fatalf("seed %d step %d: %s(%v, %d) returned %v on the COW copy, %v on the deep copy", seed, step, op, p, n, a, b)
		}
		if got, want := ribView(cow, prefixes, nbrs), ribView(deep, prefixes, nbrs); got != want {
			t.Fatalf("seed %d step %d: after %s(%v, %d) readers disagree\n COW: %s\ndeep: %s", seed, step, op, p, n, got, want)
		}
	}

	cow, deep := base.CloneCOW(), base.Clone()
	for step := 0; step < 100; step++ {
		mutate(step, cow, deep)
	}
	// One level deeper: cow is retired (only read from here on).
	cowView := ribView(cow, prefixes, nbrs)
	cow2, deep2 := cow.CloneCOW(), deep.Clone()
	if cow2.parent == nil || len(cow2.entries) != 0 {
		t.Fatalf("seed %d: second-level copy is not one flattened layer (parent %v, %d own entries)", seed, cow2.parent != nil, len(cow2.entries))
	}
	for p, e := range cow2.parent {
		if e == nil {
			t.Fatalf("seed %d: flattened layer carries a drop marker for %v", seed, p)
		}
	}
	for step := 100; step < 200; step++ {
		mutate(step, cow2, deep2)
	}
	// What is still pending goes back over a parent layer that has been
	// replaced since the first-level saves.
	for len(pending) > 0 {
		p := revert(cow2, deep2)
		if got, want := ribView(cow2, prefixes, nbrs), ribView(deep2, prefixes, nbrs); got != want {
			t.Fatalf("seed %d: after the pending RevertEntry(%v) readers disagree\n COW: %s\ndeep: %s", seed, p, got, want)
		}
	}
	if got := ribView(cow, prefixes, nbrs); got != cowView {
		t.Errorf("seed %d: writes to the second-level copy reached the first", seed)
	}
	if got := ribView(base, prefixes, nbrs); got != baseView {
		t.Errorf("seed %d: writes to a copy reached the source table", seed)
	}
}
