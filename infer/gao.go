package infer

import (
	"context"

	"github.com/policyscope/policyscope/internal/gaorelation"
)

// GaoParams tunes the Gao adapter. The fields mirror
// gaorelation.Options; vantage points come from the Input, not params.
type GaoParams struct {
	// L is the misconfiguration-smoothing threshold (default 1).
	L int `json:"l"`
	// DegreeRatio bounds peer degree dissimilarity (default 60).
	DegreeRatio float64 `json:"degree_ratio"`
}

func defaultGaoParams() *GaoParams {
	o := gaorelation.DefaultOptions()
	return &GaoParams{L: o.L, DegreeRatio: o.DegreeRatio}
}

// runGao adapts internal/gaorelation: identical options in, the very
// same Inference out, so the adapter is byte-identical to the legacy
// direct call (proven by TestGaoAdapterByteIdentical).
func runGao(_ context.Context, in Input, params any) (*Output, error) {
	p := params.(*GaoParams)
	inf := gaorelation.Infer(in.Paths, gaorelation.Options{
		L:             p.L,
		DegreeRatio:   p.DegreeRatio,
		VantagePoints: in.VantagePoints,
	})
	return &Output{Algorithm: "gao", Graph: inf.Graph, Degrees: inf.Degrees}, nil
}

func init() {
	Default.MustRegister(Algorithm{
		Name:      "gao",
		Title:     "Gao degree/transit inference (ToN 2001) — the paper's choice",
		NewParams: func() any { return defaultGaoParams() },
		Run:       runGao,
	})
}
