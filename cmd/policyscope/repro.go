package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/profiling"
	"github.com/policyscope/policyscope/obs"
)

// reproCmd runs the experiment suite on a synthetic Internet and prints
// every table and figure next to the paper's reported shape — or, with
// -format json, emits the full sweep as one deterministic JSON document
// (byte-stable across runs at a fixed seed).
//
//	policyscope repro [-ases 2000] [-seed 42] [-peers 56] [-lg 15] [-inferred]
//	      [-daily 31] [-hourly 12] [-routers 30] [-format text|json]
//	      [-dataset name] [-manifest datasets.json] [-cache-dir dir]
//	      [-log-level info] [-log-format text]
//
// The run executes against a dataset: by default the flag-derived
// synthetic configuration, with -dataset any built-in preset (paper,
// small, large) or manifest entry — including imported MRT snapshots,
// where ground-truth-free experiments run and the rest report that they
// need ground truth. -cache-dir makes repeat runs of the same dataset
// load the converged tables from disk instead of re-simulating.
//
// Single experiments run by registry name, with key=value parameter
// overrides:
//
//	policyscope repro -run table5
//	policyscope repro -run table6 -p providers=2 -p max_rows=4
//	policyscope repro -dataset small -cache-dir /tmp/psc -run table5
//	policyscope repro -list
func reproCmd(fs *flag.FlagSet) func() error {
	var (
		lg       = fs.Int("lg", 15, "Looking Glass vantage count")
		inferred = fs.Bool("inferred", false, "use Gao-inferred relationships instead of ground truth")
		daily    = fs.Int("daily", 31, "daily persistence epochs (0 skips Figures 6a/7a)")
		hourly   = fs.Int("hourly", 12, "hourly persistence epochs (0 skips Figures 6b/7b)")
		routers  = fs.Int("routers", 30, "border routers in the Figure 2(b) refinement")
		format   = fs.String("format", "text", "output format: text or json")
		runName  = fs.String("run", "", "run a single experiment by registry name")
		list     = fs.Bool("list", false, "list the experiment catalog and exit")
		ds       = dataset.Flags{ASes: 2000, Seed: 42, Peers: 56} // the paper's RouteViews had 56 peers
		logFlags obs.LogFlags
		prof     profileFlags
		params   paramList
	)
	fs.Var(&params, "p", "experiment parameter override key=value (repeatable, with -run)")
	ds.Register(fs)
	logFlags.Register(fs)
	prof.register(fs)
	return func() error {
		if err := logFlags.SetDefault(os.Stderr); err != nil {
			return err
		}
		if *format != "text" && *format != "json" {
			return usageError("-format must be text or json")
		}
		if len(params) > 0 && *runName == "" {
			return usageError("-p requires -run <experiment>")
		}
		stop, err := profiling.Start(prof.cpu, prof.mem)
		if err != nil {
			return err
		}
		defer stop()

		cat, err := ds.Catalog(policyscope.Config{LookingGlassASes: *lg, UseInferredRelationships: *inferred})
		if err != nil {
			return err
		}

		if *list {
			for _, info := range policyscope.Experiments() {
				gt := ""
				if info.NeedsGroundTruth {
					gt = "needs ground truth"
				}
				fmt.Printf("%-10s %-10s %-18s %s\n", info.Name, info.Group, gt, info.Title)
			}
			return nil
		}

		// Fail fast on a bad -run name or -p override: the check is a
		// catalog lookup, the dataset load it precedes can be minutes.
		if *runName != "" {
			if err := policyscope.ValidateKV(*runName, params); err != nil {
				return err
			}
		}

		// Ctrl-C cancels the in-flight experiment instead of killing the
		// process mid-write.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSignals()

		start := time.Now()
		src, _ := cat.Get(cat.Default())
		slog.Info("loading dataset", "dataset", cat.Default())
		study, err := src.Load(ctx)
		if err != nil {
			return err
		}
		slog.Info("dataset ready", "elapsed", time.Since(start).Round(time.Millisecond))
		sess := policyscope.NewSessionFromStudy(study)
		opts := policyscope.DefaultRunAllOptions()
		opts.DailyEpochs, opts.HourlyEpochs, opts.Routers = *daily, *hourly, *routers
		switch {
		case *runName != "":
			res, err := sess.RunKV(ctx, *runName, params)
			if err != nil {
				return err
			}
			if *format == "json" {
				err = writeJSON(os.Stdout, res)
			} else {
				err = res.Render(os.Stdout)
			}
			if err != nil {
				return err
			}
		case *format == "json":
			doc, err := sess.RunAllJSON(ctx, opts)
			if err != nil {
				return err
			}
			if err := writeJSON(os.Stdout, doc); err != nil {
				return err
			}
		default:
			if err := sess.RunAll(ctx, os.Stdout, opts); err != nil {
				return err
			}
		}
		slog.Info("done", "total", time.Since(start).Round(time.Millisecond))
		return nil
	}
}
