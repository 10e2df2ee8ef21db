package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"
)

// windowBlocks is how many equal blocks a measured window is cut into;
// ops_per_s is the median over blocks.
const windowBlocks = 5

// opFunc runs the i-th operation and verifies its output.
// A non-nil error counts the operation as failed. class says which of
// the workload's distinct operations it was (which experiment, which
// link, which batch).
type opFunc func(ctx context.Context, i int) (class int, err error)

// windowResult is what one measured window saw.
type windowResult struct {
	ElapsedS   float64   // first op start to last op end
	EndS       []float64 // completion time of each op, seconds into the window
	LatMs      []float64 // latency of each op, same order
	Class      []int     // class of each op, same order
	Failed     int
	FirstErr   error
	AllocBytes uint64 // runtime.MemStats.TotalAlloc delta over the window
}

// closedLoop drives op from one client for d: the next operation is
// issued only when the previous one returned (closed loop), none starts
// after the deadline and the one in flight finishes. Operation indices
// continue from first, so a warm-up and the window that follows walk one
// schedule; the index to continue from is returned.
func closedLoop(ctx context.Context, d time.Duration, first int, op opFunc) (windowResult, int) {
	var (
		res windowResult
		ms  runtime.MemStats
	)
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	start := time.Now()
	deadline := start.Add(d)
	i := first
	for ; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		t := time.Now()
		class, err := op(ctx, i)
		end := time.Now()
		res.Class = append(res.Class, class)
		res.EndS = append(res.EndS, end.Sub(start).Seconds())
		res.LatMs = append(res.LatMs, float64(end.Sub(t).Nanoseconds())/1e6)
		if err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = err
			}
		}
	}
	res.ElapsedS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	res.AllocBytes = ms.TotalAlloc - allocBefore
	return res, i
}

// perm is a seeded permutation of 0..n-1; stream separates the
// permutations one seed hands to different uses.
func perm(seed int64, stream, n int) []int {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream))).Perm(n)
}
