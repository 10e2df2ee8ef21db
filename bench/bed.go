package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/experiment"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/server"
)

// Dataset sizes. The topology seed is the presets' own and is not the
// benchmark seed: across topology seeds the same preset differs by 5-20 %
// in build time and what-if latency, more than the bounds allow.
// The benchmark seed picks which links, prefixes, attackers and request
// order a run uses on that fixed topology.
var (
	paperConfig = policyscope.DefaultConfig() // 600 ASes, 24 peers
	midConfig   = policyscope.Config{NumASes: 1000, Seed: 42, CollectorPeers: 32, LookingGlassASes: 15}
	smallConfig = builtinConfig("small") // 200 ASes, 12 peers: the tests
	largeConfig = builtinConfig("large") // 2000 ASes, 56 peers: the ladder rung
)

// builtinConfig is the configuration of one of the product's built-in
// synthetic presets.
func builtinConfig(name string) policyscope.Config {
	src, _ := dataset.Builtin().Get(name)
	return src.(*dataset.Synthetic).Config
}

// queryMix is serve_query's request mix: every registry experiment that
// only reads the study. README.md records why the others are left out.
var queryMix = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"table8", "table9", "table10", "table11", "figure2a", "figure2b",
	"figure9", "case3", "atoms", "decision", "multisite",
}

// bed is one serving stack under test: a one-dataset pool, its warmed
// session, and server.New(pool) behind a real loopback listener.
type bed struct {
	study *policyscope.Study
	pool  *dataset.Pool
	sess  *policyscope.Session
	srv   *server.Server
	http  *http.Server
	done  chan struct{}
	url   string
	cl    *http.Client
}

// newBed loads src through the pool (build + warm, as a server start
// does) and starts listening on 127.0.0.1.
func newBed(ctx context.Context, src dataset.Source) (*bed, error) {
	cat := dataset.NewCatalog()
	if err := cat.Register("bench", src); err != nil {
		return nil, err
	}
	b := &bed{pool: dataset.NewPool(cat, 1), done: make(chan struct{})}
	b.srv = server.New(b.pool)
	if err := b.srv.Warm(ctx); err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	var err error
	if b.sess, err = b.pool.Session(ctx, ""); err != nil {
		return nil, err
	}
	if b.study, err = b.sess.Study(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.http = &http.Server{Handler: b.srv}
	go func() {
		defer close(b.done)
		_ = b.http.Serve(ln) // returns ErrServerClosed on close()
	}()
	b.cl = &http.Client{Transport: &http.Transport{}} // its own, so close() drops only these connections
	return b, nil
}

// close stops the listener and waits for the serve goroutine.
func (b *bed) close() {
	b.cl.CloseIdleConnections()
	_ = b.http.Close()
	<-b.done
}

// post sends one request over loopback and returns the whole body.
func (b *bed) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := b.cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, out)
	}
	return out, nil
}

// renderJSON encodes v the way the server's writeJSON does, so an
// in-process result can be compared byte for byte with a response body.
func renderJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runBody is the /run/{name} response shape.
func runBody(name string, res experiment.Result) any {
	return struct {
		Name   string            `json:"name"`
		Result experiment.Result `json:"result"`
	}{name, res}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// linkScenarios is every single-link failure of the topology, expanded
// through the sweep generator like a real sweep's.
func linkScenarios(ctx context.Context, b *bed) ([]simulate.Scenario, error) {
	return b.sess.SweepScenarios(ctx, sweep.Spec{Generators: []sweep.Generator{{Kind: sweep.KindAllSingleLinkFailures}}})
}

// policyFamilies expands the four scenario families the rollback journal
// refuses — hijacks, local-pref flips, prefix withdrawals, no-upstream
// flips — one list per family. The population does not depend on the
// seed: sixteen hijackers spaced evenly over the AS list, and the local
// preferences of the eight best-connected ASes. The seed picks which
// slices of it a run takes, in which order.
func policyFamilies(ctx context.Context, b *bed) ([][]simulate.Scenario, error) {
	topo := b.study.Topo
	byDegree := append([]bgp.ASN(nil), topo.Order...)
	sort.SliceStable(byDegree, func(i, j int) bool {
		return topo.Graph.Degree(byDegree[i]) > topo.Graph.Degree(byDegree[j])
	})
	var flips []sweep.Generator
	for _, as := range byDegree[:8] {
		flips = append(flips, sweep.Generator{Kind: sweep.KindLocalPrefFlips, AS: as, Values: []uint32{50, 200}})
	}
	attackers := make([]bgp.ASN, 16)
	for i := range attackers {
		attackers[i] = topo.Order[i*len(topo.Order)/len(attackers)]
	}
	specs := [][]sweep.Generator{
		{{Kind: sweep.KindHijacks, Attackers: attackers}},
		flips,
		{{Kind: sweep.KindPrefixWithdrawals}},
		{{Kind: sweep.KindNoUpstreamFlips}},
	}
	out := make([][]simulate.Scenario, len(specs))
	for i, gens := range specs {
		scs, err := b.sess.SweepScenarios(ctx, sweep.Spec{Generators: gens})
		if err != nil {
			return nil, err
		}
		out[i] = scs
	}
	return out, nil
}

// batchSize is the scenario count of one sweep operation.
const batchSize = 64

// stridedBatches cuts each family into batches that each span the whole
// family: batch k takes every B-th scenario starting at k, per family an
// equal share of size. Batches of one call are therefore alike in cost,
// and the number of distinct batches is what the smallest family allows.
func stridedBatches(families [][]simulate.Scenario, size int) ([][]simulate.Scenario, error) {
	share := size / len(families)
	count := -1
	for _, f := range families {
		if n := len(f) / share; count < 0 || n < count {
			count = n
		}
	}
	if count < 1 {
		return nil, fmt.Errorf("a scenario family has fewer than %d members", share)
	}
	batches := make([][]simulate.Scenario, count)
	for k := range batches {
		for _, f := range families {
			stride := len(f) / share
			for j := 0; j < share; j++ {
				batches[k] = append(batches[k], f[k+j*stride])
			}
		}
	}
	return batches, nil
}
