package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/bgp"
)

// lookingglassCmd simulates a small Internet and answers Cisco-style
// queries against any vantage AS's table, the way the paper queried 15
// Looking Glass servers.
//
//	policyscope lookingglass [-ases 400] [-seed 42] -as 0 "show ip bgp"
//	policyscope lookingglass -as <ASN> "show ip bgp 20.1.2.0/24"
//	policyscope lookingglass -dataset small -cache-dir /tmp/psc -as <ASN>
//
// With -as 0 it lists the available vantage ASes. The Internet is a
// dataset like every other subcommand's: by default the flag-derived
// configuration with every collector peer a Looking Glass, with -dataset
// a preset or manifest entry, restored from -cache-dir when it holds it.
func lookingglassCmd(fs *flag.FlagSet) func() error {
	var (
		asn = fs.Uint("as", 0, "vantage AS to query (0 lists vantages)")
		ds  = dataset.Flags{ASes: 400, Seed: 42, Peers: 15}
	)
	ds.Register(fs)
	return func() error {
		cat, err := ds.Catalog(policyscope.Config{LookingGlassASes: ds.Peers})
		if err != nil {
			return err
		}
		src, _ := cat.Get(cat.Default())
		study, err := src.Load(context.Background())
		if err != nil {
			return err
		}
		srv, err := policyscope.NewSessionFromStudy(study).LookingGlass()
		if err != nil {
			return err
		}

		if *asn == 0 {
			fmt.Println("available vantage ASes:")
			for _, a := range srv.ASes() {
				info := study.Topo.ASes[a]
				fmt.Printf("  %-8v %-24s degree %3d tier %d\n", a, info.Name, study.Topo.Graph.Degree(a), info.Tier)
			}
			return nil
		}
		command := strings.Join(fs.Args(), " ")
		if command == "" {
			command = "show ip bgp"
		}
		return srv.Query(bgp.ASN(*asn), command, os.Stdout)
	}
}
