package simulate

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// allocBudget is testdata/alloc_budget.json: what a warm op of each
// BenchmarkScratch* shape allocates, at GOMAXPROCS 1 and Parallelism 1,
// measured as warmAllocs measures it.
type allocBudget struct {
	// Tolerance is how far above its row a measurement may land, per op.
	Tolerance allocRow            `json:"tolerance"`
	Rows      map[string]allocRow `json:"rows"`
}

type allocRow struct {
	Allocs float64 `json:"allocs_per_op"`
	Bytes  float64 `json:"bytes_per_op"`
}

// allocFloor is the share of its row below which a measurement fails: the
// row is stale, and is recorded again at the new level.
const allocFloor = 0.7

// minOps is the fewest ops warmAllocs runs to warm a shape up, and the
// fewest it measures.
const minOps = 256

// TestAllocBudget holds each BenchmarkScratch* shape to its row of
// testdata/alloc_budget.json: a warm op may allocate no more than the row
// plus the tolerance the file states, and no less than allocFloor of it.
// It runs at GOMAXPROCS 1, which it sets. The race detector allocates on
// its own, so the test skips under it.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the program's")
	}
	data, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget allocBudget
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, s := range scratchShapes {
		row, ok := budget.Rows[s.name]
		if !ok {
			t.Errorf("%s: no row in the budget", s.name)
			continue
		}
		got := warmAllocs(t, s.shape)
		t.Logf("%s: %.2f allocs/op, %.0f B/op (row %.2f, %.0f)", s.name, got.Allocs, got.Bytes, row.Allocs, row.Bytes)
		if got.Allocs > row.Allocs+budget.Tolerance.Allocs || got.Bytes > row.Bytes+budget.Tolerance.Bytes {
			t.Errorf("%s: %.2f allocs/op and %.0f B/op, over the budget of %.2f and %.0f", s.name, got.Allocs, got.Bytes, row.Allocs, row.Bytes)
		}
		if got.Allocs < row.Allocs*allocFloor || got.Bytes < row.Bytes*allocFloor {
			t.Errorf("%s: %.2f allocs/op and %.0f B/op, more than %.0f%% under the budget of %.2f and %.0f: record the row again",
				s.name, got.Allocs, got.Bytes, 100*(1-allocFloor), row.Allocs, row.Bytes)
		}
	}
	for name := range budget.Rows {
		if !hasShape(name) {
			t.Errorf("budget row %s names no shape", name)
		}
	}
}

func hasShape(name string) bool {
	for _, s := range scratchShapes {
		if s.name == name {
			return true
		}
	}
	return false
}

// warmAllocs returns what an op of shape allocates once warm: it runs
// every scenario of the cycle, and at least minOps ops, before it
// measures, and measures as many again.
func warmAllocs(t *testing.T, shape scratchShape) allocRow {
	op, cycle := shape(t)
	n := max(cycle, minOps)
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := n; i < 2*n; i++ {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return allocRow{
		Allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		Bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}
}
