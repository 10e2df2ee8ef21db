package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/topogen"
)

// topogenCmd generates a synthetic annotated Internet and writes its
// ground truth to files: the AS-relationship graph in the CAIDA a|b|rel
// format, the prefix-to-origin table, and a policy summary.
//
//	policyscope topogen [-ases 2000] [-seed 42] [-rel rel.txt] [-prefixes prefixes.txt]
func topogenCmd(fs *flag.FlagSet) func() error {
	var (
		ases     = fs.Int("ases", 2000, "number of ASes")
		seed     = fs.Int64("seed", 42, "random seed")
		relPath  = fs.String("rel", "", "write AS relationships (CAIDA format) to this file ('-' = stdout)")
		pfxPath  = fs.String("prefixes", "", "write prefix origins to this file ('-' = stdout)")
		showStat = fs.Bool("stats", true, "print topology statistics")
	)
	return func() error {
		topo, err := topogen.Generate(topogen.DefaultConfig(*ases, *seed))
		if err != nil {
			return err
		}

		if *showStat {
			tiers := map[int]int{}
			for _, asn := range topo.Order {
				tiers[topo.TierOf(asn)]++
			}
			selective, tagged := 0, 0
			for _, asn := range topo.Order {
				pol := topo.Policies[asn]
				selective += len(pol.Export.OriginProviders) + len(pol.Export.NoUpstream)
				if pol.Tagging != nil {
					tagged++
				}
			}
			fmt.Printf("ASes: %d (tier1 %d, tier2 %d, stubs %d)\n",
				len(topo.Order), tiers[1], tiers[2], tiers[3])
			fmt.Printf("edges: %d, prefixes: %d\n", topo.Graph.NumEdges(), topo.TotalPrefixes())
			fmt.Printf("selective announcement policies: %d, tagging ASes: %d\n", selective, tagged)
		}

		if *relPath != "" {
			if err := writeOutput(*relPath, func(w io.Writer) error {
				_, err := topo.Graph.WriteTo(w)
				return err
			}); err != nil {
				return err
			}
		}
		if *pfxPath == "" {
			return nil
		}
		return writeOutput(*pfxPath, func(w io.Writer) error {
			var prefixes []netx.Prefix
			for p := range topo.PrefixOrigin {
				prefixes = append(prefixes, p)
			}
			netx.SortPrefixes(prefixes)
			for _, p := range prefixes {
				if _, err := fmt.Fprintf(w, "%s %s\n", p, topo.PrefixOrigin[p]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}
