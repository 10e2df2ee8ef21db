// Communities: reproduce the paper's appendix — infer the semantics of
// an AS's relationship-tagging communities from prefix counts alone
// (Figure 9), compare with the operator's published scheme (Table 11),
// and verify AS relationships against the tags (Table 4).
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
)

func main() {
	cfg := policyscope.DefaultConfig()
	cfg.NumASes = 500
	cfg.Seed = 21
	cfg.Tuning = &policyscope.TopologyTuning{TaggingProb: policyscope.Prob(0.6)}
	sess := policyscope.NewSession(cfg)
	study, err := sess.Study()
	if err != nil {
		fail(err)
	}

	// Find a tagging vantage with a published scheme (the AS12859 role).
	table11 := run(sess, "table11").(policyscope.Table11Result)
	if !table11.Found {
		fail(fmt.Errorf("no vantage published a scheme at this seed"))
	}
	asn := table11.AS

	// Figure 9 for the same AS: the count structure the inference reads.
	ranks := core.RankNeighbors(study.Result.Tables[asn])
	if len(ranks) > 15 {
		ranks = ranks[:15]
	}
	figure9 := policyscope.Figure9Result{Series: []policyscope.Figure9Series{{AS: asn, Ranks: ranks}}}
	if err := figure9.Render(os.Stdout); err != nil {
		fail(err)
	}

	// Infer semantics from counts alone and compare with the truth.
	sem := core.InferCommunitySemantics(study.Result.Tables[asn], study.HasProviders(asn))
	tagging := study.Topo.Policies[asn].Tagging
	fmt.Printf("count-based semantics inference for %v:\n", asn)
	agreements, total := 0, 0
	communities := make([]bgp.Community, 0, len(sem.ClassOf))
	for c := range sem.ClassOf {
		communities = append(communities, c)
	}
	sort.Slice(communities, func(i, j int) bool { return communities[i] < communities[j] })
	for _, c := range communities {
		inferred := sem.ClassOf[c]
		truth, _ := tagging.ClassOf(c)
		total++
		mark := "✗"
		if truth == inferred {
			agreements++
			mark = "✓"
		}
		fmt.Printf("  %-14s inferred %-9s truth %-9s %s\n", c, inferred, truth, mark)
	}
	if total > 0 {
		fmt.Printf("  agreement: %d/%d\n\n", agreements, total)
	}

	// Table 4 across all tagging vantages.
	run(sess, "table4")
}

// run answers one experiment with its default parameters and prints it.
func run(sess *policyscope.Session, name string) experiment.Result {
	res, err := sess.Run(context.Background(), name, nil)
	if err == nil {
		err = res.Render(os.Stdout)
	}
	if err != nil {
		fail(err)
	}
	return res
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "communities: %v\n", err)
	os.Exit(1)
}
