// Command inferrel runs AS-relationship inference over an MRT
// TABLE_DUMP_V2 collector snapshot through the pluggable algorithm
// registry and writes the inferred annotated graph in the CAIDA a|b|rel
// format. With -truth it also scores the inference (the paper's
// Section 4.3 bound); probabilistic algorithms can emit their full
// per-edge posterior instead of the MAP graph.
//
// Usage:
//
//	inferrel -list
//	inferrel -in table.mrt [-algo gao|rank|pari] [-p key=value]... [-out rel.txt]
//	inferrel -in table.mrt -truth rel.txt [-score]
//	inferrel -in table.mrt -algo pari -posterior
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/policyscope/policyscope/infer"
	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/routeviews"
)

func main() {
	var (
		in        = flag.String("in", "", "input MRT file (required unless -list)")
		out       = flag.String("out", "-", "output relationship file ('-' = stdout)")
		algo      = flag.String("algo", "gao", "inference algorithm (see -list)")
		list      = flag.Bool("list", false, "list registered algorithms and exit")
		truth     = flag.String("truth", "", "optional ground-truth relationship file to score against")
		score     = flag.Bool("score", false, "with -truth, print the full per-class scorecard")
		posterior = flag.Bool("posterior", false, "write the per-edge posterior JSON instead of the inferred graph (probabilistic algorithms only)")
	)
	var params paramList
	flag.Var(&params, "p", "algorithm parameter override key=value (repeatable)")
	flag.Parse()

	if *list {
		for _, info := range infer.Default.Infos() {
			kind := ""
			if info.Probabilistic {
				kind = " [probabilistic]"
			}
			fmt.Printf("%-6s %s%s\n", info.Name, info.Title, kind)
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "inferrel: -in is required")
		os.Exit(2)
	}
	if *score && *truth == "" {
		fmt.Fprintln(os.Stderr, "inferrel: -score requires -truth")
		os.Exit(2)
	}
	// Reject a bad algorithm or parameter before touching the input.
	a, err := infer.Default.Lookup(*algo)
	if err != nil {
		fail(err)
	}
	decoded, err := infer.Default.DecodeKV(*algo, params)
	if err != nil {
		fail(err)
	}
	if *posterior && !a.Probabilistic {
		fmt.Fprintf(os.Stderr, "inferrel: -posterior needs a probabilistic algorithm; %q is not\n", *algo)
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	snap, err := routeviews.ReadMRT(bufio.NewReader(f))
	f.Close()
	if err != nil {
		fail(err)
	}

	res, err := a.Run(context.Background(),
		infer.Input{Paths: snap.AllPaths(), VantagePoints: snap.Peers}, decoded)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "%s: inferred %d edges over %d ASes from %d peers\n",
		*algo, res.Graph.NumEdges(), res.Graph.NumNodes(), len(snap.Peers))

	var dst *os.File
	if *out == "-" {
		dst = os.Stdout
	} else {
		dst, err = os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer dst.Close()
	}
	w := bufio.NewWriter(dst)
	if *posterior {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Posterior); err != nil {
			fail(err)
		}
	} else if _, err := res.Graph.WriteTo(w); err != nil {
		fail(err)
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}

	if *truth != "" {
		tf, err := os.Open(*truth)
		if err != nil {
			fail(err)
		}
		truthGraph, err := asgraph.Read(bufio.NewReader(tf))
		tf.Close()
		if err != nil {
			fail(err)
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
	fmt.Fprintf(os.Stderr, "inferrel: %v\n", err)
	os.Exit(1)
}
