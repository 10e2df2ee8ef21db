package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
)

// simulateCmd computes a dataset's converged BGP state and writes the
// RouteViews-style collector snapshot as an MRT TABLE_DUMP_V2 file — the
// same format family real collectors archive (and the format policyscope
// imports back as a snapshot-only dataset). The snapshot is stamped with
// collection time 0, so a run's bytes depend on its flags alone.
//
// The topology comes from the dataset catalog: by default the
// flag-derived synthetic configuration, with -dataset any built-in
// preset or manifest entry. Snapshot-only datasets (MRT imports) carry
// no topology to simulate and are rejected. With -cache-dir the dataset
// converges once per directory: later runs, -scenario included, restore
// the converged state from the study cache and converge nothing.
//
// With -scenario it additionally runs a what-if: the events in the JSON
// file (link failures/restorations, prefix withdrawals/announcements,
// policy edits) are applied to a copy-on-write clone of the study's
// converged engine, the affected prefixes are re-converged
// incrementally, a catchment-shift report is printed, and the post-event
// snapshot is the one written out. The scenario runs through the sweep
// subsystem's single-scenario path (internal/sweep.Apply), so a lone
// what-if and a sweep member produce identical impact records. -j bounds
// simulation parallelism.
//
//	policyscope simulate [-ases 2000] [-seed 42] [-peers 56] [-j 8] -out table.mrt
//	policyscope simulate -ases 800 -scenario events.json -out after.mrt
//	policyscope simulate -dataset paper -cache-dir /tmp/psc -out paper.mrt
//
// An events.json looks like:
//
//	{"name": "maintenance", "events": [
//	  {"kind": "link_fail", "a": 64512, "b": 64513},
//	  {"kind": "local_pref", "as": 64514, "neighbor": 64515, "value": 80}
//	]}
func simulateCmd(fs *flag.FlagSet) func() error {
	var (
		parallel = fs.Int("j", 0, "simulation worker parallelism (0 = GOMAXPROCS)")
		out      = fs.String("out", "table.mrt", "output MRT file ('-' = stdout)")
		scenario = fs.String("scenario", "", "what-if events JSON; the post-event snapshot is written")
		ds       = dataset.Flags{ASes: 2000, Seed: 42, Peers: 56}
	)
	ds.Register(fs)
	return func() error {
		cat, err := ds.Catalog(policyscope.Config{Parallelism: *parallel})
		if err != nil {
			return err
		}
		src, _ := cat.Get(cat.Default())
		study, err := src.Load(context.Background())
		if err != nil {
			return err
		}
		if !study.HasGroundTruth() {
			return fmt.Errorf("dataset %q is snapshot-only: nothing to simulate", cat.Default())
		}

		// The converged base state is the output, unless a scenario moves it.
		res := study.Result
		if *scenario != "" {
			sc, err := simulate.LoadScenarioFile(*scenario)
			if err != nil {
				return err
			}
			eng, err := study.WhatIfEngine()
			if err != nil {
				return err
			}
			start := time.Now()
			// The sweep subsystem's single-scenario path: identical impact
			// accounting whether a scenario runs alone or inside a fleet.
			imp, delta, err := sweep.Apply(eng, sc, 10)
			if err != nil {
				return err
			}
			name := sc.Name
			if name == "" {
				name = *scenario
			}
			fmt.Fprintf(os.Stderr,
				"scenario %s: %d event(s), re-converged %d/%d prefixes in %v, %d AS-level best shifts, reach -%d/+%d\n",
				name, len(sc.Events), delta.Recomputed, delta.TotalPrefixes,
				time.Since(start).Round(time.Millisecond), imp.ShiftedASes,
				imp.LostReachPairs, imp.GainedReachPairs)
			for i, sh := range delta.Shifts {
				if i >= 10 {
					fmt.Fprintf(os.Stderr, "  ... %d more shifted prefixes\n", len(delta.Shifts)-10)
					break
				}
				fmt.Fprintf(os.Stderr, "  %v (AS%d): %d shifted, %d lost, %d gained\n",
					sh.Prefix, sh.Origin, sh.Shifted, sh.Lost, sh.Gained)
			}
			res = eng.Result()
		}
		if len(res.Unconverged) > 0 {
			return fmt.Errorf("%d prefixes did not converge", len(res.Unconverged))
		}
		snap, err := routeviews.Collect(res, study.Peers, 0)
		if err != nil {
			return err
		}
		if err := writeOutput(*out, func(w io.Writer) error { return snap.WriteMRT(w) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d prefixes from %d peers to %s\n",
			len(snap.Prefixes()), len(snap.Peers), *out)
		return nil
	}
}
