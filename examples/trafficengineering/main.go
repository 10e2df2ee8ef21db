// Traffic engineering: the paper's core observation is that multihomed
// customers control inbound traffic by announcing prefixes to a subset
// of providers — producing SA prefixes and "curving" routes at the
// providers they bypass. This example cranks the selective-announcement
// knob, finds a concrete SA prefix at a Tier-1 vantage, and narrates the
// curving route, then shows the aggregate effect (Tables 6 and 8).
package main

import (
	"context"
	"fmt"
	"os"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/core"
)

func main() {
	cfg := policyscope.DefaultConfig()
	cfg.NumASes = 500
	cfg.Seed = 11
	cfg.Tuning = &policyscope.TopologyTuning{
		// Half of all multihomed-origin prefixes are selectively
		// announced: aggressive inbound traffic engineering.
		SelectiveAnnounceProb: policyscope.Prob(0.5),
	}
	sess := policyscope.NewSession(cfg)
	study, err := sess.Study()
	if err != nil {
		fail(err)
	}

	// Walk the Tier-1 analogue of the paper's AS1 and narrate its first
	// few curving routes (the Figure 5 situation).
	t1 := study.TierOneVantages(1)
	if len(t1) == 0 {
		fail(fmt.Errorf("no tier-1 vantage"))
	}
	provider := t1[0]
	fmt.Printf("Provider under study: %v (%s, degree %d)\n\n",
		provider, study.Topo.ASes[provider].Name, study.Topo.Graph.Degree(provider))

	for _, res := range run(sess, "table5").(policyscope.RowsResult[core.SAResult]).Rows {
		if res.Vantage != provider {
			continue
		}
		fmt.Printf("%v sees %d prefixes from its customer cone; %d (%.1f%%) are selectively announced.\n\n",
			provider, res.ConePrefixes, len(res.SA), res.SAPct())
		for i, sa := range res.SA {
			if i >= 5 {
				fmt.Printf("  ... and %d more\n", len(res.SA)-5)
				break
			}
			path, ok := study.Topo.Graph.CustomerPath(provider, sa.Origin)
			fmt.Printf("  %s originated by customer %v\n", sa.Prefix, sa.Origin)
			fmt.Printf("    best route curves through %v (%v): path %v\n",
				sa.NextHop, sa.NextHopRel, sa.Route.Path)
			if ok {
				fmt.Printf("    unused customer path existed: %v\n", path)
			}
		}
		fmt.Println()
	}

	// The aggregate customer view (Table 6) and who does this (Table 8).
	for _, name := range []string{"table6", "table8"} {
		if err := run(sess, name).Render(os.Stdout); err != nil {
			fail(err)
		}
	}
	fmt.Println("The paper's caution: every selectively announced prefix above is one the")
	fmt.Println("provider can only reach through a peer — connectivity without reachability.")
}

// run answers one experiment with its default parameters.
func run(sess *policyscope.Session, name string) experiment.Result {
	res, err := sess.Run(context.Background(), name, nil)
	if err != nil {
		fail(err)
	}
	return res
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "trafficengineering: %v\n", err)
	os.Exit(1)
}
