package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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

// sweepCmd runs a batch what-if sweep over a generated topology: a
// declarative spec (or a -gen shorthand) expands into a scenario family —
// every single-link failure, the de-peerings of a target AS, prefix
// withdrawals, hijack grids, policy flips — and the sharded executor runs
// them on -j worker-owned copy-on-write engine clones, streaming
// per-scenario impact records and printing the final aggregate.
//
// The dataset comes from the catalog: by default the flag-derived
// synthetic configuration, with -dataset any built-in preset or manifest
// entry (snapshot-only MRT datasets carry no topology and are rejected).
// A local run sweeps clones of the study's converged engine, so with
// -cache-dir the dataset converges once per directory and later runs
// restore it; a coordinator needs only the topology and converges
// nothing either way.
//
//	policyscope sweep -ases 800 -seed 42 -j 8                  # all single-link failures
//	policyscope sweep -gen all_provider_depeerings -as 64512   # one family by shorthand
//	policyscope sweep -spec sweep.json -records records.ndjson # full spec, records to file
//	policyscope sweep -dataset paper                           # a catalog preset
//	policyscope sweep -format text                             # rendered aggregate tables
//
// With -workers it becomes a distributed coordinator instead of running
// scenarios itself: the scenario index space is partitioned into
// contiguous shards (-shard-size) dispatched to the listed serve fleet,
// with per-shard lease timeouts (-lease), bounded retry (-retries),
// reassignment of failed workers' shards, and an optional resumable
// checkpoint:
//
//	policyscope sweep -ases 800 -workers host1:8081,host2:8081 \
//	      -checkpoint /tmp/cp -records records.ndjson        # distributed
//	policyscope sweep ... -checkpoint /tmp/cp -resume        # continue a killed run
//
// Distributed output — records and aggregate — is byte-identical to the
// single-process run of the same spec.
//
// Records stream in scenario index order (deterministic for a given
// topology and spec regardless of -j or the fleet layout). Progress goes
// to stderr as structured logs (-log-level, -log-format); the final
// "sweep done" line carries scenarios=N workers=J elapsed_ms=T (in
// -workers/-fleet-addr mode, the distinct workers that delivered a
// shard), and -log-level debug adds one "worker done" line per worker
// with its busy time — the per-worker utilization behind any J>1 speedup
// claim.
func sweepCmd(fs *flag.FlagSet) func() error {
	var (
		jobs       = fs.Int("j", 0, "sweep worker count; with -workers, the executor parallelism on each remote worker (0 = GOMAXPROCS)")
		workerList = fs.String("workers", "", "comma-separated serve worker addresses (host:port); run as a distributed coordinator (with -fleet-addr, the static seed list)")
		fleetAddr  = fs.String("fleet-addr", "", "listen address for worker self-registration (POST /fleet/register); enables dynamic fleet membership")
		fleetTTL   = fs.Duration("fleet-ttl", dsweep.DefaultFleetTTL, "heartbeat liveness window in -fleet-addr mode; missed heartbeats past it evict the worker")
		grace      = fs.Duration("grace", 30*time.Second, "how long a -fleet-addr run tolerates zero live workers before failing")
		noSpec     = fs.Bool("no-speculate", false, "disable speculative re-dispatch of straggler shards")
		specAfter  = fs.Duration("speculate-after", 5*time.Second, "straggler floor: never speculate a shard attempt younger than this")
		adaptive   = fs.Bool("adaptive-shards", false, "shrink tail shards to a quarter of -shard-size so the last shard cannot dominate wall time")
		shardSize  = fs.Int("shard-size", dsweep.DefaultShardSize, "scenarios per shard in -workers mode")
		checkpoint = fs.String("checkpoint", "", "checkpoint directory in -workers mode: completed shards spool here for -resume")
		resume     = fs.Bool("resume", false, "resume from -checkpoint instead of refusing to reuse it")
		lease      = fs.Duration("lease", 5*time.Minute, "per-shard lease timeout in -workers mode")
		retries    = fs.Int("retries", 3, "max attempts per shard in -workers mode")
		trace      = fs.Bool("trace", false, "dump a coordinator span waterfall (NDJSON) to stderr in -workers mode")
		specPath   = fs.String("spec", "", "sweep spec JSON file ('-' = stdin)")
		gen        = fs.String("gen", "", "generator shorthand instead of -spec (e.g. all_single_link_failures)")
		genAS      = fs.Int("as", 0, "target AS for per-AS generators (-gen)")
		genMax     = fs.Int("max", 0, "cap the generator's scenario count (-gen)")
		genTier    = fs.Int("tier", 0, "restrict link failures to links touching this tier (-gen)")
		records    = fs.String("records", "", "write per-scenario NDJSON records to this file ('-' = stdout)")
		format     = fs.String("format", "json", "aggregate output: json or text")
		topK       = fs.Int("top", 10, "aggregate top-k critical scenarios")
		topShifts  = fs.Int("top-shifts", 3, "per-record most-shifted prefix detail")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
		ds         = dataset.Flags{ASes: 800, Seed: 42, Peers: 24}
		logFlags   obs.LogFlags
		prof       profileFlags
	)
	ds.Register(fs)
	logFlags.Register(fs)
	prof.register(fs)
	return func() error {
		if err := logFlags.SetDefault(os.Stderr); err != nil {
			return err
		}
		if *format != "json" && *format != "text" {
			return errors.New("-format must be json or text")
		}
		if *specPath != "" && *gen != "" {
			return errors.New("-spec and -gen are mutually exclusive")
		}
		if *resume && *checkpoint == "" {
			return errors.New("-resume requires -checkpoint")
		}
		distributed := *workerList != "" || *fleetAddr != ""
		if !distributed && (*checkpoint != "" || *resume) {
			return errors.New("-checkpoint/-resume apply to -workers/-fleet-addr mode only")
		}
		stop, err := profiling.Start(prof.cpu, prof.mem)
		if err != nil {
			return err
		}
		defer stop()

		spec, err := resolveSpec(*specPath, *gen, *genAS, *genMax, *genTier)
		if err != nil {
			return err
		}

		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()

		cat, err := ds.Catalog(policyscope.Config{})
		if err != nil {
			return err
		}
		slog.Info("loading dataset", "dataset", cat.Default())
		src, _ := cat.Get(cat.Default())
		// A coordinator expands the spec against the topology and leaves
		// every engine to its fleet, so it converges nothing; a local run
		// takes the study's converged engine, which the executor clones
		// per worker.
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
			return err
		}
		scenarios, err := sweep.Expand(ctx, topo, spec)
		if err != nil {
			return err
		}

		var (
			agg              *sweep.Aggregate
			effectiveWorkers int
			elapsed          time.Duration
		)
		// execute runs the sweep, encoding each record to rec when
		// -records names a destination.
		execute := func(rec *json.Encoder) error {
			done := 0
			step := max(len(scenarios)/20, 1)
			start := time.Now()
			onImpact := func(imp *sweep.Impact) error {
				if rec != nil {
					if err := rec.Encode(imp); err != nil {
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

			if distributed {
				vantageFP := dsweep.VantageFingerprint(peerSet)
				var seeds []string
				if *workerList != "" {
					seeds = strings.Split(*workerList, ",")
				}
				delivered := map[string]bool{}
				var fleet *dsweep.Fleet
				if *fleetAddr != "" {
					// Dynamic membership: workers self-register here and
					// stay live by heartbeating; the static -workers list
					// (if any) seeds the dispatch before the first
					// registration lands.
					fleet = dsweep.NewFleet(*fleetTTL)
					mux := http.NewServeMux()
					mux.Handle("/fleet/register", fleet.Handler())
					ln, err := net.Listen("tcp", *fleetAddr)
					if err != nil {
						return err
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
						return err
					}
					fp.Vantages = vantageFP
					if cp, err = dsweep.OpenCheckpoint(*checkpoint, fp); err != nil {
						return err
					}
					if cp.Resumed() && !*resume {
						return fmt.Errorf("checkpoint %s already holds %d completed shards; pass -resume to continue it (or remove the directory)",
							*checkpoint, cp.CompletedCount())
					}
				}
				var tr *obs.Trace
				if *trace {
					ctx, tr = obs.WithTrace(ctx, "dsweep")
				}
				var err error
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
					return err
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
				var err error
				if agg, err = sweep.Run(ctx, base, scenarios, opts); err != nil {
					return err
				}
			}
			elapsed = time.Since(start)
			if rec == nil {
				return nil
			}
			// The records stream ends with the same {"sweep_done": ...}
			// trailer the /sweep endpoint emits: a file without one was
			// truncated. Deterministic fields only, so local and
			// distributed runs stay byte-identical.
			return rec.Encode(struct {
				Done sweep.Done `json:"sweep_done"`
			}{sweep.Done{Scenarios: len(scenarios), Records: done}})
		}
		if *records == "" {
			err = execute(nil)
		} else {
			err = writeOutput(*records, func(w io.Writer) error { return execute(json.NewEncoder(w)) })
		}
		if err != nil {
			return err
		}

		// Records on stdout imply NDJSON mode: the aggregate then only
		// reaches stderr, keeping the record stream pure.
		if *records != "-" {
			if *format == "text" {
				err = policyscope.SweepResult{Spec: spec, Aggregate: agg}.Render(os.Stdout)
			} else {
				err = writeJSON(os.Stdout, agg)
			}
			if err != nil {
				return err
			}
		}
		slog.Info("sweep done",
			"scenarios", agg.Scenarios, "workers", effectiveWorkers,
			"elapsed_ms", elapsed.Milliseconds())
		return nil
	}
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
