package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/routeviews"
)

// inferexportCmd runs the paper's Figure-4 selective-announcement
// detector against an MRT collector snapshot plus a relationship file,
// printing the Table 5 view and, per SA prefix, the observing vantage,
// origin and curving next hop.
//
//	policyscope inferexport -in table.mrt -rel rel.txt [-details]
func inferexportCmd(fs *flag.FlagSet) func() error {
	var (
		in      = fs.String("in", "", "input MRT file (required)")
		rel     = fs.String("rel", "", "relationship file, CAIDA format (required)")
		details = fs.Bool("details", false, "list every SA prefix")
	)
	return func() error {
		if *in == "" || *rel == "" {
			return usageError("-in and -rel are required")
		}
		snap, err := readInput(*in, routeviews.ReadMRT)
		if err != nil {
			return err
		}
		graph, err := readInput(*rel, asgraph.Read)
		if err != nil {
			return err
		}

		analyzer := &core.ExportAnalyzer{Graph: graph}
		table := &reports.Table{
			Title:   "SA prefixes per collector peer (Figure 4 algorithm)",
			Columns: []string{"AS", "cone prefixes", "SA", "% SA"},
		}
		for _, peer := range snap.Peers {
			view := core.ViewFromPeerTable(snap.Table, peer)
			res := analyzer.SAPrefixes(view)
			table.AddRow(peer.String(), fmt.Sprintf("%d", res.ConePrefixes),
				fmt.Sprintf("%d", len(res.SA)), reports.Pct(res.SAPct()))
			if *details {
				for _, sa := range res.SA {
					fmt.Printf("  %v: %s originated by %v arrives via %v (%v)\n",
						peer, sa.Prefix, sa.Origin, sa.NextHop, sa.NextHopRel)
				}
			}
		}
		_, err = table.WriteTo(os.Stdout)
		return err
	}
}
