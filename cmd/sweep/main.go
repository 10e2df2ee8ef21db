// Command sweep runs a batch what-if sweep over a generated topology:
// a declarative spec (or a -gen shorthand) expands into a scenario
// family — every single-link failure, the de-peerings of a target AS,
// prefix withdrawals, hijack grids, policy flips — and the sharded
// executor runs them on -j worker-owned copy-on-write engine clones,
// streaming per-scenario impact records and printing the final
// aggregate.
//
// The dataset comes from the catalog: by default the flag-derived
// synthetic configuration, with -dataset any built-in preset or manifest
// entry (snapshot-only MRT datasets carry no topology and are rejected).
// A local run sweeps clones of the study's converged engine, so with
// -cache-dir the dataset converges once per directory and later runs
// restore it; a coordinator needs only the topology and converges
// nothing either way.
//
// Usage:
//
//	sweep -ases 800 -seed 42 -j 8                       # all single-link failures
//	sweep -gen all_provider_depeerings -as 64512        # one family by shorthand
//	sweep -spec sweep.json -records records.ndjson      # full spec, records to file
//	sweep -dataset paper                                # a catalog preset
//	sweep -format text                                  # rendered aggregate tables
//
// With -workers the command becomes a distributed coordinator instead
// of running scenarios itself: the scenario index space is partitioned
// into contiguous shards (-shard-size) dispatched to the listed policyscoped
// fleet, with per-shard lease timeouts (-lease), bounded retry
// (-retries), reassignment of failed workers' shards, and an optional
// resumable checkpoint:
//
//	sweep -ases 800 -workers host1:8081,host2:8081 \
//	      -checkpoint /tmp/cp -records records.ndjson   # distributed
//	sweep ... -checkpoint /tmp/cp -resume               # continue a killed run
//
// Distributed output — records and aggregate — is byte-identical to the
// single-process run of the same spec.
//
// Records stream in scenario index order (deterministic for a given
// topology and spec regardless of -j or the fleet layout). Progress
// goes to stderr as structured logs (-log-level, -log-format); the
// final "sweep done" line carries scenarios=N workers=J elapsed_ms=T,
// (in -workers/-fleet-addr mode, the distinct workers that delivered a
// shard), and -log-level debug adds one "worker done" line per worker
// with its busy time — the per-worker utilization behind any J>1 speedup
// claim.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/dsweep"
	"github.com/policyscope/policyscope/internal/profiling"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/internal/topogen"
	"github.com/policyscope/policyscope/obs"
)

// profStop flushes any active profiles; fail() and normal returns both
// run it so -cpuprofile/-memprofile survive error exits.
var profStop = func() {}

func main() {
	var (
		jobs       = flag.Int("j", 0, "sweep worker count; with -workers, the executor parallelism on each remote worker (0 = GOMAXPROCS)")
		workerList = flag.String("workers", "", "comma-separated policyscoped worker addresses (host:port); run as a distributed coordinator (with -fleet-addr, the static seed list)")
		fleetAddr  = flag.String("fleet-addr", "", "listen address for worker self-registration (POST /fleet/register); enables dynamic fleet membership")
		fleetTTL   = flag.Duration("fleet-ttl", dsweep.DefaultFleetTTL, "heartbeat liveness window in -fleet-addr mode; missed heartbeats past it evict the worker")
		grace      = flag.Duration("grace", 30*time.Second, "how long a -fleet-addr run tolerates zero live workers before failing")
		noSpec     = flag.Bool("no-speculate", false, "disable speculative re-dispatch of straggler shards")
		specAfter  = flag.Duration("speculate-after", 5*time.Second, "straggler floor: never speculate a shard attempt younger than this")
		adaptive   = flag.Bool("adaptive-shards", false, "shrink tail shards to a quarter of -shard-size so the last shard cannot dominate wall time")
		shardSize  = flag.Int("shard-size", dsweep.DefaultShardSize, "scenarios per shard in -workers mode")
		checkpoint = flag.String("checkpoint", "", "checkpoint directory in -workers mode: completed shards spool here for -resume")
		resume     = flag.Bool("resume", false, "resume from -checkpoint instead of refusing to reuse it")
		lease      = flag.Duration("lease", 5*time.Minute, "per-shard lease timeout in -workers mode")
		retries    = flag.Int("retries", 3, "max attempts per shard in -workers mode")
		trace      = flag.Bool("trace", false, "dump a coordinator span waterfall (NDJSON) to stderr in -workers mode")
		specPath   = flag.String("spec", "", "sweep spec JSON file ('-' = stdin)")
		gen        = flag.String("gen", "", "generator shorthand instead of -spec (e.g. all_single_link_failures)")
		genAS      = flag.Int("as", 0, "target AS for per-AS generators (-gen)")
		genMax     = flag.Int("max", 0, "cap the generator's scenario count (-gen)")
		genTier    = flag.Int("tier", 0, "restrict link failures to links touching this tier (-gen)")
		records    = flag.String("records", "", "write per-scenario NDJSON records to this file ('-' = stdout)")
		format     = flag.String("format", "json", "aggregate output: json or text")
		topK       = flag.Int("top", 10, "aggregate top-k critical scenarios")
		topShifts  = flag.Int("top-shifts", 3, "per-record most-shifted prefix detail")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		ds         = dataset.Flags{ASes: 800, Seed: 42, Peers: 24}
		logFlags   obs.LogFlags
	)
	ds.Register(flag.CommandLine)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := logFlags.SetDefault(os.Stderr); err != nil {
		fail(err)
	}
	if *format != "json" && *format != "text" {
		fail(fmt.Errorf("-format must be json or text"))
	}
	if *specPath != "" && *gen != "" {
		fail(fmt.Errorf("-spec and -gen are mutually exclusive"))
	}
	if *resume && *checkpoint == "" {
		fail(fmt.Errorf("-resume requires -checkpoint"))
	}
	distributed := *workerList != "" || *fleetAddr != ""
	if !distributed && (*checkpoint != "" || *resume) {
		fail(fmt.Errorf("-checkpoint/-resume apply to -workers/-fleet-addr mode only"))
	}
	profStop = profiling.MustStart(*cpuProfile, *memProfile, fail)
	defer profStop()

	spec, err := resolveSpec(*specPath, *gen, *genAS, *genMax, *genTier)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cat, err := ds.Catalog(policyscope.Config{})
	if err != nil {
		fail(err)
	}
	slog.Info("loading dataset", "dataset", cat.Default())
	src, _ := cat.Get(cat.Default())
	// A coordinator expands the spec against the topology and leaves every
	// engine to its fleet, so it converges nothing; a local run takes the
	// study's converged engine, which the executor clones per worker.
	var (
		topo    *topogen.Topology
		peerSet []bgp.ASN
		base    *simulate.Engine
	)
	if distributed {
		topo, peerSet, err = dataset.LoadTopology(ctx, src)
	} else if base, err = loadBase(ctx, src); err == nil {
		topo = base.Topology()
	}
	if err != nil {
		fail(err)
	}
	scenarios, err := sweep.Expand(ctx, topo, spec)
	if err != nil {
		fail(err)
	}

	var recW *bufio.Writer
	if *records != "" {
		f := os.Stdout
		if *records != "-" {
			f, err = os.Create(*records)
			if err != nil {
				fail(err)
			}
			defer f.Close()
		}
		recW = bufio.NewWriter(f)
		defer recW.Flush()
	}
	var recEnc *json.Encoder
	if recW != nil {
		recEnc = json.NewEncoder(recW)
	}

	done := 0
	step := len(scenarios) / 20
	if step < 1 {
		step = 1
	}
	start := time.Now()
	onImpact := func(imp *sweep.Impact) error {
		if recEnc != nil {
			if err := recEnc.Encode(imp); err != nil {
				return err
			}
		}
		done++
		if !*quiet && (done%step == 0 || done == len(scenarios)) {
			slog.Info("sweep progress",
				"done", done, "total", len(scenarios),
				"pct", int(100*float64(done)/float64(len(scenarios))),
				"elapsed", time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	var (
		agg              *sweep.Aggregate
		effectiveWorkers int
	)
	if distributed {
		vantageFP := dsweep.VantageFingerprint(peerSet)
		var seeds []string
		if *workerList != "" {
			seeds = strings.Split(*workerList, ",")
		}
		delivered := map[string]bool{}
		var fleet *dsweep.Fleet
		if *fleetAddr != "" {
			// Dynamic membership: workers self-register here and stay
			// live by heartbeating; the static -workers list (if any)
			// seeds the dispatch before the first registration lands.
			fleet = dsweep.NewFleet(*fleetTTL)
			mux := http.NewServeMux()
			mux.Handle("/fleet/register", fleet.Handler())
			ln, err := net.Listen("tcp", *fleetAddr)
			if err != nil {
				fail(err)
			}
			fsrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			go func() {
				if err := fsrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					slog.Error("fleet registry", "err", err)
				}
			}()
			defer fsrv.Close()
			slog.Info("fleet registry listening", "addr", ln.Addr().String(), "ttl", fleet.TTL())
		}
		var cp *dsweep.Checkpoint
		if *checkpoint != "" {
			fp, err := dsweep.NewFingerprint(spec, ds.Dataset, len(scenarios), *shardSize, *topShifts, *adaptive)
			if err != nil {
				fail(err)
			}
			fp.Vantages = vantageFP
			cp, err = dsweep.OpenCheckpoint(*checkpoint, fp)
			if err != nil {
				fail(err)
			}
			if cp.Resumed() && !*resume {
				fail(fmt.Errorf("checkpoint %s already holds %d completed shards; pass -resume to continue it (or remove the directory)",
					*checkpoint, cp.CompletedCount()))
			}
		}
		var tr *obs.Trace
		if *trace {
			ctx, tr = obs.WithTrace(ctx, "dsweep")
		}
		agg, err = dsweep.Run(ctx, spec, scenarios, dsweep.Options{
			Workers:            seeds,
			Fleet:              fleet,
			NoWorkerGrace:      *grace,
			ShardSize:          *shardSize,
			AdaptiveShards:     *adaptive,
			DisableSpeculation: *noSpec,
			SpeculateAfter:     *specAfter,
			TopShifts:          *topShifts,
			TopK:               *topK,
			WorkerParallelism:  *jobs,
			Dataset:            ds.Dataset,
			Vantages:           vantageFP,
			LeaseTimeout:       *lease,
			MaxAttempts:        *retries,
			Checkpoint:         cp,
			OnImpact:           onImpact,
			OnShardDone: func(worker string, d dsweep.ShardDone) {
				delivered[worker] = true
				slog.Debug("shard done",
					"worker", worker, "start", d.Start, "end", d.End,
					"records", d.Records)
			},
			OnSpeculate: func(sh dsweep.Shard) {
				slog.Info("speculating straggler shard",
					"index", sh.Index, "start", sh.Start, "end", sh.End)
			},
		})
		if tr != nil {
			_ = tr.WriteNDJSON(os.Stderr)
		}
		if err != nil {
			fail(err)
		}
		effectiveWorkers = len(delivered)
	} else {
		opts := sweep.Options{Workers: *jobs, TopShifts: *topShifts, TopK: *topK, OnImpact: onImpact}
		effectiveWorkers = opts.EffectiveWorkers(len(scenarios))
		opts.OnWorkerDone = func(ws sweep.WorkerStats) {
			slog.Debug("worker done",
				"worker", ws.Worker, "scenarios", ws.Scenarios,
				"busy_ms", ws.Busy.Milliseconds(), "reclones", ws.Reclones)
		}
		agg, err = sweep.Run(ctx, base, scenarios, opts)
		if err != nil {
			fail(err)
		}
	}
	elapsed := time.Since(start)
	if recEnc != nil {
		// The records stream ends with the same {"sweep_done": ...}
		// trailer the /sweep endpoint emits: a file without one was
		// truncated. Deterministic fields only, so local and distributed
		// runs stay byte-identical.
		if err := recEnc.Encode(struct {
			Done sweep.Done `json:"sweep_done"`
		}{sweep.Done{Scenarios: len(scenarios), Records: done}}); err != nil {
			fail(err)
		}
	}
	if recW != nil {
		if err := recW.Flush(); err != nil {
			fail(err)
		}
	}

	// Records on stdout imply NDJSON mode: the aggregate then only
	// reaches stderr, keeping the record stream pure.
	if *records != "-" {
		if *format == "text" {
			if err := (policyscope.SweepResult{Spec: spec, Aggregate: agg}).Render(os.Stdout); err != nil {
				fail(err)
			}
		} else {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(agg); err != nil {
				fail(err)
			}
		}
	}
	slog.Info("sweep done",
		"scenarios", agg.Scenarios, "workers", effectiveWorkers,
		"elapsed_ms", elapsed.Milliseconds())
}

// loadBase loads the dataset's study and returns a clone of its converged
// engine — restored, not converged, when the study cache holds the
// dataset.
func loadBase(ctx context.Context, src dataset.Source) (*simulate.Engine, error) {
	study, err := src.Load(ctx)
	if err != nil {
		return nil, err
	}
	return study.WhatIfEngine()
}

// resolveSpec builds the sweep spec from -spec, -gen, or the default
// (every single-link failure).
func resolveSpec(specPath, gen string, genAS, genMax, genTier int) (sweep.Spec, error) {
	switch {
	case specPath == "-":
		return sweep.Load(os.Stdin)
	case specPath != "":
		return sweep.LoadFile(specPath)
	case gen != "":
		return sweep.Spec{
			Name: gen,
			Generators: []sweep.Generator{{
				Kind: gen, AS: bgp.ASN(genAS), Max: genMax, Tier: genTier,
			}},
		}, nil
	default:
		return sweep.Spec{
			Name:       "all-single-link-failures",
			Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures, Max: genMax, Tier: genTier}},
		}, nil
	}
}

func fail(err error) {
	profStop()
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
