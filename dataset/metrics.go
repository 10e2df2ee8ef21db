package dataset

import (
	"time"

	"github.com/policyscope/policyscope/obs"
)

// Pool metrics, process-wide across all pools (a serving process runs
// one). The counters mirror Pool.Stats so dashboards and healthz agree;
// the histograms answer what Stats cannot: how long builds take per
// outcome and how long hits wait on in-flight builds.
var (
	mPoolHits = obs.NewCounter("policyscope_pool_hits_total",
		"Session resolutions served from a resident (or in-flight) pool entry.")
	mPoolMisses = obs.NewCounter("policyscope_pool_misses_total",
		"Session resolutions that started a new dataset build.")
	mPoolEvictions = obs.NewCounter("policyscope_pool_evictions_total",
		"Warmed sessions evicted by the LRU bound.")
	mPoolBuildSeconds = obs.NewHistogramVec("policyscope_pool_build_seconds",
		"Dataset build (Source.Load + session construction) latency by outcome.",
		nil, "outcome")
	mPoolBuildOK     = mPoolBuildSeconds.With("ok")
	mPoolBuildError  = mPoolBuildSeconds.With("error")
	mPoolWaitSeconds = obs.NewHistogram("policyscope_pool_wait_seconds",
		"Time a pool hit spent waiting for the entry to become ready (0 for warm hits).", nil)
	mPoolCooldownRejects = obs.NewCounter("policyscope_pool_cooldown_rejects_total",
		"Session requests refused because the dataset's last build failed within the cooldown window.")
)

// Cache metrics: where a Cached.Load's study came from, and what that
// cost. No per-dataset label — a manifest can name any number of them.
var (
	mCacheLoads = obs.NewCounterVec("policyscope_dataset_cache_total",
		"Cached dataset loads by where the study came from: hit (restored from the entry), miss (no entry: built and written), stale (an entry that would not load — truncated, corrupt, another format version, converged state the topology refuses — rebuilt and replaced).",
		"result")
	mCacheLoadSeconds = obs.NewHistogramVec("policyscope_dataset_load_seconds",
		"Wall time of one Cached dataset load, by the same result: a hit is read + decode + engine restore, a miss or stale load is the source's build plus the entry's encode and write.",
		nil, "result")
)

// The values of the result label.
const (
	cacheHit   = "hit"
	cacheMiss  = "miss"
	cacheStale = "stale"
)

func observeLoad(result string, start time.Time) {
	mCacheLoads.With(result).Inc()
	mCacheLoadSeconds.With(result).ObserveSince(start)
}
