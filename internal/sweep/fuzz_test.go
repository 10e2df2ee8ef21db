package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/policyscope/policyscope/internal/topogen"
)

var (
	fuzzTopoOnce sync.Once
	fuzzTopo     *topogen.Topology
)

// FuzzSpecJSON feeds the bytes POST /sweep and POST /sweep/shard carry
// as their "spec" through the path the server runs: Load, Validate,
// Expand — against a 60-AS topology, under a short context. Nothing may
// panic; every error is a *GeneratorError, the context's, or one of the
// package's own "sweep: ..." errors; and what expands respects the
// spec's caps. The committed corpus under testdata/fuzz/FuzzSpecJSON
// holds one spec per generator kind (ASNs and prefixes of that
// topology) plus the malformed shapes the server tests post.
func FuzzSpecJSON(f *testing.F) {
	fuzzTopoOnce.Do(func() {
		topo, err := topogen.Generate(topogen.DefaultConfig(60, 1))
		if err != nil {
			f.Fatal(err)
		}
		fuzzTopo = topo
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Load(bytes.NewReader(data))
		if err != nil {
			checkSweepError(t, err)
			return
		}
		if err := sp.Validate(); err != nil {
			checkSweepError(t, err)
			// Expand validates first: it must refuse the spec too.
			if _, err := Expand(context.Background(), fuzzTopo, sp); err == nil {
				t.Fatalf("Expand accepted a spec Validate refuses: %s", data)
			}
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		scs, err := Expand(ctx, fuzzTopo, sp)
		if err != nil {
			checkSweepError(t, err)
			return
		}
		if len(scs) == 0 {
			t.Fatalf("Expand returned no scenarios and no error: %s", data)
		}
		if sp.MaxScenarios > 0 && len(scs) > sp.MaxScenarios {
			t.Fatalf("%d scenarios exceed max_scenarios %d", len(scs), sp.MaxScenarios)
		}
		for i, sc := range scs {
			if len(sc.Events) == 0 {
				t.Fatalf("scenario %d (%q) has no events", i, sc.Name)
			}
		}
	})
}

// checkSweepError holds err to the shapes callers dispatch on.
func checkSweepError(t *testing.T, err error) {
	t.Helper()
	var ge *GeneratorError
	switch {
	case errors.As(err, &ge):
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
	case strings.HasPrefix(err.Error(), "sweep: "):
	default:
		t.Fatalf("untyped error %T: %v", err, err)
	}
}
