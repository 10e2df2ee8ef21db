// Quickstart: build a small synthetic Internet, run the paper's two
// headline inferences — import-policy typicality (Table 2) and the
// Figure-4 selective-announcement detector (Table 5) — and print the
// paper-vs-measured summary.
package main

import (
	"context"
	"fmt"
	"os"

	policyscope "github.com/policyscope/policyscope"
)

func main() {
	cfg := policyscope.DefaultConfig()
	cfg.NumASes = 400
	cfg.Seed = 2003 // the paper's vintage; any seed reproduces exactly

	// The session builds the study on the first query and shares it
	// with the rest. table2 — import policies: do local preferences
	// follow AS relationships? table5 — export policies: which prefixes
	// reach providers only through "curving" peer routes?
	sess := policyscope.NewSession(cfg)
	for _, name := range []string{"table2", "table5", "summary"} {
		res, err := sess.Run(context.Background(), name, nil)
		if err == nil {
			err = res.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
			os.Exit(1)
		}
	}
}
