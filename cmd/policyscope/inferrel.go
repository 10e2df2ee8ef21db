package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/policyscope/policyscope/infer"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/routeviews"
)

// inferrelCmd runs AS-relationship inference over an MRT TABLE_DUMP_V2
// collector snapshot through the pluggable algorithm registry and writes
// the inferred annotated graph in the CAIDA a|b|rel format. With -truth
// it also scores the inference (the paper's Section 4.3 bound);
// probabilistic algorithms can emit their full per-edge posterior
// instead of the MAP graph.
//
//	policyscope inferrel -list
//	policyscope inferrel -in table.mrt [-algo gao|rank|pari] [-p key=value]... [-out rel.txt]
//	policyscope inferrel -in table.mrt -truth rel.txt [-score]
//	policyscope inferrel -in table.mrt -algo pari -posterior
func inferrelCmd(fs *flag.FlagSet) func() error {
	var (
		in        = fs.String("in", "", "input MRT file (required unless -list)")
		out       = fs.String("out", "-", "output relationship file ('-' = stdout)")
		algo      = fs.String("algo", "gao", "inference algorithm (see -list)")
		list      = fs.Bool("list", false, "list registered algorithms and exit")
		truth     = fs.String("truth", "", "optional ground-truth relationship file to score against")
		score     = fs.Bool("score", false, "with -truth, print the full per-class scorecard")
		posterior = fs.Bool("posterior", false, "write the per-edge posterior JSON instead of the inferred graph (probabilistic algorithms only)")
		params    paramList
	)
	fs.Var(&params, "p", "algorithm parameter override key=value (repeatable)")
	return func() error {
		if *list {
			for _, info := range infer.Default.Infos() {
				kind := ""
				if info.Probabilistic {
					kind = " [probabilistic]"
				}
				fmt.Printf("%-6s %s%s\n", info.Name, info.Title, kind)
			}
			return nil
		}
		if *in == "" {
			return usageError("-in is required")
		}
		if *score && *truth == "" {
			return usageError("-score requires -truth")
		}
		// Reject a bad algorithm or parameter before touching the input.
		a, err := infer.Default.Lookup(*algo)
		if err != nil {
			return err
		}
		decoded, err := infer.Default.DecodeKV(*algo, params)
		if err != nil {
			return err
		}
		if *posterior && !a.Probabilistic {
			return usageError(fmt.Sprintf("-posterior needs a probabilistic algorithm; %q is not", *algo))
		}

		snap, err := readInput(*in, routeviews.ReadMRT)
		if err != nil {
			return err
		}
		res, err := a.Run(context.Background(),
			infer.Input{Paths: snap.AllPaths(), VantagePoints: snap.Peers}, decoded)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: inferred %d edges over %d ASes from %d peers\n",
			*algo, res.Graph.NumEdges(), res.Graph.NumNodes(), len(snap.Peers))

		if err := writeOutput(*out, func(w io.Writer) error {
			if *posterior {
				return writeJSON(w, res.Posterior)
			}
			_, err := res.Graph.WriteTo(w)
			return err
		}); err != nil {
			return err
		}

		if *truth == "" {
			return nil
		}
		truthGraph, err := readInput(*truth, asgraph.Read)
		if err != nil {
			return err
		}
		sc := infer.Score(res.Graph, truthGraph)
		fmt.Fprintf(os.Stderr, "accuracy: %.2f%% of %d observed edges (missed %d, spurious %d)\n",
			100*sc.Accuracy, sc.SharedEdges, sc.MissedEdges, sc.SpuriousEdges)
		if *score {
			for _, key := range []string{"p2c", "p2p", "sibling"} {
				cs := sc.ByClass[key]
				fmt.Fprintf(os.Stderr, "  %-7s truth %d inferred %d correct %d precision %.2f recall %.2f\n",
					key, cs.Truth, cs.Inferred, cs.Correct, cs.Precision, cs.Recall)
			}
		}
		return nil
	}
}
