// Command repro runs the experiment suite of "On Inferring and
// Characterizing Internet Routing Policies" (IMC 2003) on a synthetic
// Internet and prints every table and figure next to the paper's
// reported shape — or, with -format json, emits the full sweep as one
// deterministic JSON document (byte-stable across runs at a fixed
// seed).
//
// Usage:
//
//	repro [-ases 2000] [-seed 42] [-peers 56] [-lg 15] [-inferred]
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
//	repro -run table5
//	repro -run table6 -p providers=2 -p max_rows=4
//	repro -dataset small -cache-dir /tmp/psc -run table5
//	repro -list
package main

import (
	"context"
	"encoding/json"
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

// profStop flushes any active profiles; fail() and normal returns both
// run it so -cpuprofile/-memprofile survive error exits.
var profStop = func() {}

func main() {
	var (
		lg         = flag.Int("lg", 15, "Looking Glass vantage count")
		inferred   = flag.Bool("inferred", false, "use Gao-inferred relationships instead of ground truth")
		daily      = flag.Int("daily", 31, "daily persistence epochs (0 skips Figures 6a/7a)")
		hourly     = flag.Int("hourly", 12, "hourly persistence epochs (0 skips Figures 6b/7b)")
		routers    = flag.Int("routers", 30, "border routers in the Figure 2(b) refinement")
		format     = flag.String("format", "text", "output format: text or json")
		runName    = flag.String("run", "", "run a single experiment by registry name")
		list       = flag.Bool("list", false, "list the experiment catalog and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		ds         = dataset.Flags{ASes: 2000, Seed: 42, Peers: 56} // the paper's RouteViews had 56 peers
		logFlags   obs.LogFlags
	)
	var params paramList
	flag.Var(&params, "p", "experiment parameter override key=value (repeatable, with -run)")
	ds.Register(flag.CommandLine)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := logFlags.SetDefault(os.Stderr); err != nil {
		fail(err)
	}

	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "repro: -format must be text or json\n")
		os.Exit(2)
	}
	if len(params) > 0 && *runName == "" {
		fmt.Fprintf(os.Stderr, "repro: -p requires -run <experiment>\n")
		os.Exit(2)
	}
	profStop = profiling.MustStart(*cpuProfile, *memProfile, fail)
	defer profStop()

	cat, err := ds.Catalog(policyscope.Config{LookingGlassASes: *lg, UseInferredRelationships: *inferred})
	if err != nil {
		fail(err)
	}

	if *list {
		for _, info := range policyscope.Experiments() {
			gt := ""
			if info.NeedsGroundTruth {
				gt = "needs ground truth"
			}
			fmt.Printf("%-10s %-10s %-18s %s\n", info.Name, info.Group, gt, info.Title)
		}
		return
	}

	// Fail fast on a bad -run name or -p override: the check is a
	// catalog lookup, the dataset load it precedes can be minutes.
	if *runName != "" {
		if err := policyscope.ValidateKV(*runName, params); err != nil {
			fail(err)
		}
	}

	// Ctrl-C cancels the in-flight experiment instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	src, _ := cat.Get(cat.Default())
	slog.Info("loading dataset", "dataset", cat.Default())
	study, err := src.Load(ctx)
	if err != nil {
		fail(err)
	}
	slog.Info("dataset ready", "elapsed", time.Since(start).Round(time.Millisecond))
	sess := policyscope.NewSessionFromStudy(study)
	if *runName != "" {
		res, err := sess.RunKV(ctx, *runName, params)
		if err != nil {
			fail(err)
		}
		if *format == "json" {
			emitJSON(res)
		} else if err := res.Render(os.Stdout); err != nil {
			fail(err)
		}
		slog.Info("done", "total", time.Since(start).Round(time.Millisecond))
		return
	}

	opts := policyscope.DefaultRunAllOptions()
	opts.DailyEpochs = *daily
	opts.HourlyEpochs = *hourly
	opts.Routers = *routers

	if *format == "json" {
		doc, err := sess.RunAllJSON(ctx, opts)
		if err != nil {
			fail(err)
		}
		emitJSON(doc)
	} else if err := sess.RunAll(ctx, os.Stdout, opts); err != nil {
		fail(err)
	}
	slog.Info("done", "total", time.Since(start).Round(time.Millisecond))
}

// emitJSON writes indented, deterministic JSON.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

// paramList collects repeated -p key=value flags.
type paramList []string

func (p *paramList) String() string { return fmt.Sprint([]string(*p)) }

func (p *paramList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func fail(err error) {
	profStop()
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
