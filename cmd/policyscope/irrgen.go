package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/policyscope/policyscope/internal/asgraph"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/irr"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/topogen"
)

// irrgenCmd generates a synthetic IRR (RPSL aut-num database) from a
// topology's ground-truth policies, or parses an existing one and prints
// the Table 3 import-policy analysis.
//
//	policyscope irrgen [-ases 2000] [-seed 42] -out radb.db          # generate
//	policyscope irrgen -analyze radb.db -rel rel.txt [-mindate 20020101]
func irrgenCmd(fs *flag.FlagSet) func() error {
	var (
		ases    = fs.Int("ases", 2000, "number of ASes (generation mode)")
		seed    = fs.Int64("seed", 42, "random seed")
		out     = fs.String("out", "", "write a generated RPSL database to this file ('-' = stdout)")
		analyze = fs.String("analyze", "", "parse this RPSL database and run the Table 3 analysis")
		rel     = fs.String("rel", "", "relationship file for -analyze")
		minDate = fs.Int("mindate", 20020101, "discard aut-num objects older than this date")
		minNbrs = fs.Int("minneighbors", 4, "minimum known-relationship import lines per AS")
	)
	return func() error {
		switch {
		case *analyze != "":
			if *rel == "" {
				return usageError("-analyze requires -rel")
			}
			db, err := readInput(*analyze, irr.Parse)
			if err != nil {
				return err
			}
			graph, err := readInput(*rel, asgraph.Read)
			if err != nil {
				return err
			}
			table := &reports.Table{
				Title:   "Typical local preference from IRR (Table 3 analysis)",
				Columns: []string{"AS", "% typical pairs", "import lines"},
			}
			for _, r := range core.IRRTypicality(db, graph, *minDate, *minNbrs) {
				table.AddRow(r.AS.String(), reports.Pct(r.TypicalPct()), fmt.Sprintf("%d", r.Neighbors))
			}
			_, err = table.WriteTo(os.Stdout)
			return err

		case *out != "":
			topo, err := topogen.Generate(topogen.DefaultConfig(*ases, *seed))
			if err != nil {
				return err
			}
			db := irr.Generate(topo, irr.DefaultGenOptions(*seed+1))
			if err := writeOutput(*out, func(w io.Writer) error {
				_, err := db.WriteTo(w)
				return err
			}); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d aut-num objects\n", len(db.Objects))
			return nil

		default:
			return usageError("use -out to generate or -analyze to mine a database")
		}
	}
}
