// Package dsweep scales the sweep executor across machines: a
// coordinator deterministically partitions a spec's scenario index
// space into contiguous shards, dispatches each shard to a worker over
// the existing NDJSON record protocol (POST /sweep/shard — the PR 3
// executor behind an HTTP handler), and merges the returned streams
// back into strict global scenario order. Because every worker expands
// the same spec against the same dataset to the same scenario list, and
// the single-process executor already emits records that are pure
// functions of (base state, scenario), the merged distributed output is
// bit-identical to a single-process `policyscope sweep -j N` run for any worker
// count, shard size, and arrival order.
//
// The coordinator is fault-tolerant (per-shard lease timeouts, bounded
// retry with backoff, reassignment of a failed worker's shards to the
// rest of the fleet, exactly-once merge) and resumable (completed
// shards spool to a checkpoint directory; a restarted run replays them
// through the same merge path instead of recomputing).
package dsweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/sweep"
)

// DefaultShardSize is the scenarios-per-shard default. Small enough
// that a lost shard is cheap to redo and checkpoint progress is
// granular; large enough that per-shard HTTP and expansion-memo
// overhead amortizes.
const DefaultShardSize = 256

// ShardRequest is the POST /sweep/shard body: run scenarios
// [Start, End) of the spec's deterministic expansion. The worker
// expands the spec itself (expansion is deterministic, and the
// per-session memo makes it one-time work per fleet member) rather than
// receiving serialized scenarios — the request stays O(spec), not
// O(shard).
type ShardRequest struct {
	Spec sweep.Spec `json:"spec"`
	// Start and End bound the global scenario index range, half-open.
	Start int `json:"start"`
	End   int `json:"end"`
	// Seq is the coordinator's dispatch sequence number for this
	// attempt. It is echoed in the trailer so a late stream from a
	// superseded attempt is attributable in logs; the merge itself
	// dedupes by shard range, so correctness never depends on it.
	Seq int `json:"seq,omitempty"`
	// ExpectTotal, when nonzero, is the scenario count the coordinator's
	// own expansion produced. A worker whose expansion disagrees refuses
	// the shard — the fleet is pointed at different datasets (or code
	// versions) and its records would silently corrupt the merge.
	ExpectTotal int `json:"expect_total,omitempty"`
	// Vantages, when nonempty, is the coordinator's vantage-set
	// fingerprint (VantageFingerprint over its dataset's collector
	// peers). ExpectTotal pins the scenario universe and the per-record
	// name checks pin the topology's link set, but records are
	// functions of the *vantage set* too — two fleets on the same
	// topology with different -peers counts would pass both checks and
	// silently merge records that differ from the single-process run.
	// A worker whose own vantage fingerprint disagrees refuses the
	// shard before executing it.
	Vantages string `json:"vantages,omitempty"`
	// TopShifts and Workers pass through to the worker's executor
	// options (per-record detail bound; local parallelism, defaulted by
	// the worker when zero).
	TopShifts int `json:"top_shifts,omitempty"`
	// Workers is the executor parallelism on the worker, not the fleet
	// size.
	Workers int `json:"workers,omitempty"`
}

// VantageFingerprint hashes a vantage (collector peer) set to a short
// order-insensitive identity. Sweep records are pure functions of
// (topology, vantage set, scenario); the scenario-name verification
// pins the topology, and this pins the other input, so a worker whose
// flag-derived dataset shares the coordinator's topology but not its
// -peers count is rejected instead of silently diverging.
func VantageFingerprint(peers []bgp.ASN) string {
	sorted := make([]bgp.ASN, len(peers))
	copy(sorted, peers)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := sha256.New()
	for _, p := range sorted {
		h.Write([]byte(strconv.FormatUint(uint64(p), 10)))
		h.Write([]byte{','})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ValidateRange checks the request's index range against the expanded
// scenario count (pass total < 0 to skip the upper-bound check).
func (r ShardRequest) ValidateRange(total int) error {
	if r.Start < 0 || r.End <= r.Start {
		return fmt.Errorf("bad shard range [%d,%d)", r.Start, r.End)
	}
	if total >= 0 && r.End > total {
		return fmt.Errorf("shard range [%d,%d) exceeds the spec's %d scenarios", r.Start, r.End, total)
	}
	return nil
}

// ShardDone is the stream trailer a worker emits after the shard's last
// record, as a single NDJSON line {"shard_done":{...}}. Its presence is
// the stream-integrity signal: a response that ends without one was
// truncated (worker died mid-shard) and the coordinator retries the
// shard. Records/Start/End let the coordinator cross-check what it
// merged; WorkerStats carries the worker-local executor utilization for
// fleet observability.
type ShardDone struct {
	Start   int `json:"start"`
	End     int `json:"end"`
	Seq     int `json:"seq"`
	Records int `json:"records"`
	// WorkerStats are the worker's local executor stats, ascending
	// worker index.
	WorkerStats []sweep.WorkerStats `json:"worker_stats,omitempty"`
}

// wireLine decodes one NDJSON line of a shard response: either an
// Impact record (ShardDone nil) or the trailer (only the "shard_done"
// key set). Impact is embedded so record lines decode directly into it.
type wireLine struct {
	ShardDone *ShardDone `json:"shard_done"`
	sweep.Impact
}

// Shard is one contiguous range of the global scenario index space.
type Shard struct {
	// Index is the shard's position in the partition (0-based); shards
	// merge in Index order.
	Index int
	// Start and End bound the scenario range, half-open.
	Start, End int
}

// Partition splits total scenarios into contiguous shards of size
// scenarios each (the last shard takes the remainder). The split is a
// pure function of (total, size): every coordinator restart — and every
// worker, given the same spec — sees the same shard boundaries, which
// is what makes checkpoints replayable and the merge order global.
func Partition(total, size int) []Shard {
	if total <= 0 {
		return nil
	}
	if size <= 0 {
		size = DefaultShardSize
	}
	shards := make([]Shard, 0, (total+size-1)/size)
	for start := 0; start < total; start += size {
		end := start + size
		if end > total {
			end = total
		}
		shards = append(shards, Shard{Index: len(shards), Start: start, End: end})
	}
	return shards
}

// PartitionAdaptive splits like Partition for the body of the index
// space but shrinks the tail: the last ~10% of scenarios (at least one
// full shard's worth) is cut into quarter-size shards. Large body
// shards amortize per-shard overhead; small tail shards keep one slow
// final shard from dominating the run's wall clock, and give the
// straggler detector cheap units to speculate. Like Partition, the
// split is a pure function of (total, size), so checkpoints stay
// replayable — the choice of partitioner is part of the fingerprint.
func PartitionAdaptive(total, size int) []Shard {
	if total <= 0 {
		return nil
	}
	if size <= 0 {
		size = DefaultShardSize
	}
	tailSize := size / 4
	if tailSize < 1 {
		tailSize = 1
	}
	tail := total / 10
	if tail < size {
		tail = size
	}
	cut := total - tail
	if cut <= 0 {
		// The whole space fits in the tail budget: plain small shards.
		cut = 0
	}
	var shards []Shard
	for start := 0; start < cut; start += size {
		end := start + size
		if end > cut {
			end = cut
		}
		shards = append(shards, Shard{Index: len(shards), Start: start, End: end})
	}
	for start := cut; start < total; start += tailSize {
		end := start + tailSize
		if end > total {
			end = total
		}
		shards = append(shards, Shard{Index: len(shards), Start: start, End: end})
	}
	return shards
}

// PermanentError marks a worker response that retrying cannot fix — the
// worker understood the request and rejected it (4xx: bad spec, range
// out of bounds, dataset mismatch). The coordinator fails the run
// immediately instead of burning the retry budget.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }
