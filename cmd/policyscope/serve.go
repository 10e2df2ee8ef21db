package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/dsweep"
	"github.com/policyscope/policyscope/internal/httpd"
	"github.com/policyscope/policyscope/obs"
	"github.com/policyscope/policyscope/server"
)

// serveCmd serves the experiment catalog over HTTP/JSON: a long-lived
// query service over a pool of precomputed studies — many universes
// (synthetic presets, manifest entries, imported MRT snapshots) behind
// one process, the production shape of repro. The same process is a
// distributed-sweep worker: it answers POST /sweep/shard for a sweep
// coordinator, listed statically in the coordinator's -workers or
// self-registered with -coordinator.
//
//	policyscope serve [-addr :8080] [-ases 2000] [-seed 42] [-peers 56]
//	      [-lg 15] [-inferred] [-warm]
//	      [-dataset name] [-manifest datasets.json]
//	      [-cache-dir .policyscope-cache] [-pool 4]
//	      [-coordinator http://coord:9000] [-advertise http://me:8080]
//	      [-heartbeat 5s]
//	      [-max-inflight 64] [-max-inflight-light 1024]
//	      [-request-timeout 0] [-drain-timeout 30s]
//	      [-read-timeout 1m] [-write-timeout 0] [-idle-timeout 2m]
//	      [-log-level info] [-log-format text] [-debug-addr :6060]
//
// The daemon runs on the hardened httpd lifecycle: real read/idle
// timeouts, and SIGTERM/SIGINT triggers a graceful drain — /healthz
// flips to 503 draining, the listener closes, and in-flight requests get
// -drain-timeout to finish before connections are cut. Admission control
// sheds load beyond -max-inflight with 429 + Retry-After instead of
// queueing it.
//
// The dataset catalog holds the built-in presets (paper, small, large),
// the manifest's entries, and the flag-derived configuration under the
// name "default" (the default dataset unless -dataset or the manifest
// says otherwise). Every query endpoint accepts ?dataset=<name>; the
// pool keeps at most -pool warmed sessions, LRU-evicted. README.md lists
// the routes; -debug-addr starts a second listener serving
// /debug/pprof/* and a /metrics mirror — opt-in, so profiling endpoints
// never share the public address.
//
// A two-worker local sweep fleet with a static worker list. The
// dataset-shaping flags -ases/-seed/-peers must match the coordinator's:
// the shard protocol fingerprints the scenario universe and the vantage
// set, and the coordinator verifies every record against its own
// expansion, so a drifted worker is rejected, not merged. Point every
// worker's -cache-dir at one shared directory and the first to build a
// dataset pays for it once:
//
//	policyscope serve -addr :8081 -ases 800 -peers 24 -cache-dir /tmp/psc -warm &
//	policyscope serve -addr :8082 -ases 800 -peers 24 -cache-dir /tmp/psc -warm &
//	policyscope sweep -ases 800 -gen all_single_link_failures \
//	      -workers localhost:8081,localhost:8082 -records -
//
// With -coordinator the worker instead registers itself against a sweep
// coordinator running -fleet-addr, and keeps itself live with heartbeats
// carrying its in-flight shard count; workers can then join and leave a
// running sweep. SIGTERM stops the heartbeats first, so the coordinator
// routes around the worker while its shard streams drain.
func serveCmd(fs *flag.FlagSet) func() error {
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		lg        = fs.Int("lg", 15, "Looking Glass vantage count")
		inferred  = fs.Bool("inferred", false, "use Gao-inferred relationships instead of ground truth")
		warm      = fs.Bool("warm", false, "build the default dataset before accepting traffic")
		poolSize  = fs.Int("pool", dataset.DefaultMaxSessions, "max warmed sessions resident at once")
		debugAddr = fs.String("debug-addr", "", "serve /debug/pprof/* and /metrics on this extra address (off when empty)")
		coord     = fs.String("coordinator", "", "sweep coordinator base URL to self-register with as a fleet worker (empty = static -workers membership)")
		advertise = fs.String("advertise", "", "base URL to register with -coordinator (default http://<addr>)")
		heartbeat = fs.Duration("heartbeat", dsweep.DefaultHeartbeatInterval, "heartbeat interval in -coordinator mode")
		maxHeavy  = fs.Int("max-inflight", server.DefaultMaxHeavy, "admission bound on concurrent expensive requests (/run, /infer, /whatif, /sweep, /sweep/shard); excess sheds 429 (-1 = unbounded)")
		maxLight  = fs.Int("max-inflight-light", server.DefaultMaxLight, "admission bound on concurrent catalog reads; excess sheds 429 (-1 = unbounded)")
		reqTO     = fs.Duration("request-timeout", 0, "server-side deadline per expensive request (0 = none)")
		ds        = dataset.Flags{ASes: 2000, Seed: 42, Peers: 56}
		logFlags  obs.LogFlags
		srvFlags  httpd.Flags
	)
	ds.Register(fs)
	logFlags.Register(fs)
	srvFlags.Register(fs)
	return func() error {
		if err := logFlags.SetDefault(os.Stderr); err != nil {
			return err
		}
		cat, err := ds.Catalog(policyscope.Config{LookingGlassASes: *lg, UseInferredRelationships: *inferred})
		if err != nil {
			return err
		}
		pool := dataset.NewPool(cat, *poolSize)
		srv := server.New(pool, server.WithLimits(server.Limits{
			MaxHeavy: *maxHeavy, MaxLight: *maxLight, RequestTimeout: *reqTO,
		}))
		if *debugAddr != "" {
			go serveDebug(*debugAddr)
		}
		if *warm {
			start := time.Now()
			slog.Info("warming dataset", "dataset", cat.Default())
			if err := srv.Warm(context.Background()); err != nil {
				return err
			}
			slog.Info("warm complete", "dataset", cat.Default(),
				"elapsed", time.Since(start).Round(time.Millisecond))
		}

		ctx, cancelBeats := context.WithCancel(context.Background())
		defer cancelBeats()
		if *coord != "" {
			adv := *advertise
			if adv == "" {
				adv = "http://" + strings.TrimPrefix(*addr, "http://")
			}
			go func() {
				err := dsweep.HeartbeatLoop(ctx, dsweep.HeartbeatOptions{
					Coordinator: *coord,
					Advertise:   adv,
					Interval:    *heartbeat,
					Status: func() dsweep.Heartbeat {
						return dsweep.Heartbeat{
							InFlightShards: srv.InflightShards(),
							Healthy:        true,
						}
					},
				})
				if err != nil && !errors.Is(err, context.Canceled) {
					slog.Error("heartbeat loop", "err", err)
				}
			}()
		}

		slog.Info("serving", "addr", *addr, "datasets", len(cat.Names()),
			"default", cat.Default(), "coordinator", *coord)
		hcfg := srvFlags.Config(*addr)
		hcfg.Draining = func() {
			// Stop heartbeating the moment the drain starts: the
			// coordinator sees the registration expire and routes around
			// this worker while its in-flight shard streams finish.
			cancelBeats()
			srv.SetDraining()
		}
		return httpd.Run(context.Background(), hcfg, srv)
	}
}

// serveDebug exposes the profiling and metrics endpoints on their own
// mux — never the public one — so enabling pprof is an explicit,
// separately-addressable choice.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", obs.Default.Handler())
	slog.Info("debug server", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		slog.Error("debug server failed", "err", err)
	}
}
