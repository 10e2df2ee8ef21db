// Persistence: reproduce Figures 6 and 7 — how stable are selectively
// announced prefixes as operators churn their export policies across
// collection epochs? The paper finds SA prefixes consistently present,
// with about one sixth shifting over a month and most stable within a
// day.
package main

import (
	"context"
	"fmt"
	"os"

	policyscope "github.com/policyscope/policyscope"
)

func main() {
	cfg := policyscope.DefaultConfig()
	cfg.NumASes = 350
	cfg.Seed = 31
	sess := policyscope.NewSession(cfg)

	// A month of daily snapshots with measurable policy churn. figure6
	// and figure7 chart one series: the session computes it once.
	daily := &policyscope.PersistenceParams{
		Epochs: 31, ChurnFraction: policyscope.Prob(0.03), EpochSeconds: 86400,
	}
	fig6 := run(sess, "figure6", daily)
	run(sess, "figure7", daily)
	fmt.Printf("monthly shifting share: %.2f (paper: ~1/6)\n\n", fig6.Series.ShiftingShare())

	// A day of hourly snapshots with much less churn.
	hourly := run(sess, "figure6", &policyscope.PersistenceParams{
		Epochs: 12, ChurnFraction: policyscope.Prob(0.005), EpochSeconds: 3600,
	})
	fmt.Printf("hourly shifting share: %.2f (paper: most stable within a day)\n", hourly.Series.ShiftingShare())
}

// run prints one persistence figure and returns its typed result.
func run(sess *policyscope.Session, name string, p *policyscope.PersistenceParams) policyscope.PersistenceChartResult {
	res, err := sess.Run(context.Background(), name, p)
	if err == nil {
		err = res.Render(os.Stdout)
	}
	if err != nil {
		fail(err)
	}
	return res.(policyscope.PersistenceChartResult)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "persistence: %v\n", err)
	os.Exit(1)
}
