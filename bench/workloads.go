package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
)

// The load model is one core's worth of work: main pins GOMAXPROCS to 1,
// every workload has one closed-loop client and the sweeps one executor
// worker. This guest's second core is not reliably ours (README, "The
// host drifts"), and two busy threads on a core and a half measure the
// neighbour, not the program.

// oracleWorkers is the executor width the sweep oracle holds against one
// worker: records must not depend on it.
const oracleWorkers = 2

// workload is one set of inputs the benchmark runs. Names are final:
// BENCHMARK.json, committed results and later issues cite them.
type workload struct {
	name  string
	why   string
	cfg   policyscope.Config
	setup func(ctx context.Context, cfg policyscope.Config, seed int64, tmp string) (*instance, error)
}

// instance is a workload after set-up, ready to be driven.
type instance struct {
	op opFunc
	// oracle runs the differential checks that are too slow to repeat
	// per operation. It returns how many checks it made and which failed.
	oracle func(ctx context.Context) (checks int, failures []error)
	// digests fingerprint the outputs, so two runs of one seed compare.
	digests map[string]string
	// bed is the serving stack (nil for the start workloads).
	bed *bed
	// study is the dataset the instance runs on.
	study *policyscope.Study
	// schedule lists, in order, what the first operations
	// will be — the seed-determinism witness.
	schedule []string
	close    func()
}

var workloads = []workload{
	{
		name: "serve_query",
		why:  "POST /run/{name} over loopback for the 18 read-only experiments: analysis, JSON render and wire dominate, the engine is idle",
		cfg:  paperConfig, setup: setupServeQuery,
	},
	{
		name: "serve_whatif",
		why:  "POST /whatif single-link failures over the whole edge list: the write path (COW clone, apply, report) beside serve_query's reads",
		cfg:  paperConfig, setup: setupServeWhatIf,
	},
	{
		name: "sweep_links",
		why:  "Session.Sweep of 64-link-failure batches: the journal checkpoint/rollback fast path and the executor do nearly all the work",
		cfg:  paperConfig, setup: setupSweepLinks,
	},
	{
		name: "sweep_policy",
		why:  "same batches over hijacks, local-pref flips, withdrawals, no-upstream flips: families the journal refuses, so every scenario re-clones",
		cfg:  paperConfig, setup: setupSweepPolicy,
	},
	{
		name: "start_cold",
		why:  "1000-AS dataset through an empty cache then Warm: generate, converge, collect, encode; the serving layers do nothing",
		cfg:  midConfig, setup: setupStartCold,
	},
	{
		name: "start_cached",
		why:  "same dataset from a filled cache then Warm: decode and engine warm-up dominate, convergence from scratch is bypassed",
		cfg:  midConfig, setup: setupStartCached,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- serve_query ---------------------------------------------------------

func setupServeQuery(ctx context.Context, cfg policyscope.Config, seed int64, _ string) (*instance, error) {
	b, err := newBed(ctx, dataset.NewSynthetic(cfg))
	if err != nil {
		return nil, err
	}
	// One pass over the mix fixes each response's digest and pays the
	// study's lazy artifacts, as the first minute of serving would.
	want := make(map[string]string, len(queryMix))
	all := sha256.New()
	for _, name := range queryMix {
		body, err := b.post(ctx, "/run/"+name, nil)
		if err != nil {
			b.close()
			return nil, err
		}
		want[name] = digest(body)
		all.Write(body)
	}
	// The client walks the mix in a fresh seeded order each cycle.
	n := len(queryMix)
	pick := func(i int) int { return perm(seed, i/n, n)[i%n] }
	in := &instance{bed: b, study: b.study, close: b.close,
		digests: map[string]string{"responses": hex.EncodeToString(all.Sum(nil))}}
	for i := 0; i < 2*n; i++ {
		in.schedule = append(in.schedule, queryMix[pick(i)])
	}
	in.op = func(ctx context.Context, i int) (int, error) {
		k := pick(i)
		name := queryMix[k]
		body, err := b.post(ctx, "/run/"+name, nil)
		if err != nil {
			return k, err
		}
		if got := digest(body); got != want[name] {
			return k, fmt.Errorf("%s: response digest %s, first response had %s", name, got, want[name])
		}
		return k, nil
	}
	in.oracle = func(ctx context.Context) (int, []error) {
		var fails []error
		for _, name := range queryMix {
			res, err := b.sess.RunJSON(ctx, name, nil)
			var buf bytes.Buffer
			if err == nil {
				err = renderJSON(&buf, runBody(name, res))
			}
			if err == nil && digest(buf.Bytes()) != want[name] {
				err = fmt.Errorf("HTTP body differs from in-process RunJSON")
			}
			if err != nil {
				fails = append(fails, fmt.Errorf("%s: %w", name, err))
			}
		}
		return len(queryMix), fails
	}
	return in, nil
}

// ---- serve_whatif --------------------------------------------------------

// oracleScenarios is how many scenarios the what-if oracle resimulates
// from scratch.
const oracleScenarios = 8

func setupServeWhatIf(ctx context.Context, cfg policyscope.Config, seed int64, _ string) (*instance, error) {
	b, err := newBed(ctx, dataset.NewSynthetic(cfg))
	if err != nil {
		return nil, err
	}
	scs, err := linkScenarios(ctx, b)
	if err != nil {
		b.close()
		return nil, err
	}
	bodies := make([][]byte, len(scs))
	for i, sc := range scs {
		if bodies[i], err = json.Marshal(sc); err != nil {
			b.close()
			return nil, err
		}
	}
	// One permutation of the edge list, so every link is equally likely
	// whatever the seed.
	order := perm(seed, 0, len(scs))
	pick := func(i int) int { return order[i%len(order)] }
	in := &instance{bed: b, study: b.study, close: b.close, digests: map[string]string{}}
	for i := 0; i < 32; i++ {
		in.schedule = append(in.schedule, scs[pick(i)].Name)
	}
	seen := map[int]string{} // scenario index -> body digest
	in.op = func(ctx context.Context, i int) (int, error) {
		k := pick(i)
		body, err := b.post(ctx, "/whatif", bodies[k])
		if err != nil {
			return k, err
		}
		got := digest(body)
		if prev, dup := seen[k]; dup && prev != got {
			return k, fmt.Errorf("%s: response digest changed between repeats", scs[k].Name)
		}
		seen[k] = got
		return k, nil
	}
	in.oracle = func(ctx context.Context) (int, []error) {
		var fails []error
		all := sha256.New()
		base, err := b.study.WhatIfEngine()
		if err != nil {
			return 1, []error{err}
		}
		for i := 0; i < oracleScenarios; i++ {
			k := pick(i)
			if err := checkWhatIf(ctx, b, base, scs[k], bodies[k], all); err != nil {
				fails = append(fails, fmt.Errorf("%s: %w", scs[k].Name, err))
			}
		}
		in.digests["whatif"] = hex.EncodeToString(all.Sum(nil))
		return 2 * oracleScenarios, fails
	}
	return in, nil
}

// checkWhatIf holds one scenario's HTTP answer against the in-process
// Session.WhatIf JSON, and the incremental engine state against a full
// resimulation of the mutated topology.
func checkWhatIf(ctx context.Context, b *bed, base *simulate.Engine, sc simulate.Scenario, reqBody []byte, all io.Writer) error {
	body, err := b.post(ctx, "/whatif", reqBody)
	if err != nil {
		return err
	}
	all.Write(body)
	rep, err := b.sess.WhatIf(ctx, sc)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := renderJSON(&buf, rep); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("HTTP body differs from in-process Session.WhatIf")
	}
	eng := base.Clone()
	if _, err := eng.Apply(sc); err != nil {
		return err
	}
	topo := b.study.Topo.Clone()
	if err := sc.ApplyToTopology(topo); err != nil {
		return err
	}
	full, err := simulate.Run(topo, simulate.Options{
		VantagePoints: b.study.Peers, Parallelism: b.study.Config.Parallelism,
	})
	if err != nil {
		return err
	}
	if diffs := simulate.DiffResults(eng.Result(), full); len(diffs) > 0 {
		return fmt.Errorf("incremental differs from full resimulation: %s", diffs[0])
	}
	return nil
}

// ---- sweep_links / sweep_policy -------------------------------------------

// sweepFamilies expands the scenario families of each sweep workload.
var sweepFamilies = map[string]func(context.Context, *bed) ([][]simulate.Scenario, error){
	"sweep_links": func(ctx context.Context, b *bed) ([][]simulate.Scenario, error) {
		scs, err := linkScenarios(ctx, b)
		return [][]simulate.Scenario{scs}, err
	},
	"sweep_policy": policyFamilies,
}

func setupSweepLinks(ctx context.Context, cfg policyscope.Config, seed int64, _ string) (*instance, error) {
	return setupSweep(ctx, cfg, seed, "sweep_links")
}

func setupSweepPolicy(ctx context.Context, cfg policyscope.Config, seed int64, _ string) (*instance, error) {
	return setupSweep(ctx, cfg, seed, "sweep_policy")
}

func setupSweep(ctx context.Context, cfg policyscope.Config, seed int64, name string) (*instance, error) {
	b, err := newBed(ctx, dataset.NewSynthetic(cfg))
	if err != nil {
		return nil, err
	}
	families, err := sweepFamilies[name](ctx, b)
	var batches [][]simulate.Scenario
	if err == nil {
		batches, err = stridedBatches(families, batchSize)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	order := perm(seed, 0, len(batches))
	in := &instance{bed: b, study: b.study, close: b.close, digests: map[string]string{}}
	for _, k := range order {
		in.schedule = append(in.schedule, batches[k][0].Name)
	}
	seen := map[int]string{} // batch index -> records digest
	in.op = func(ctx context.Context, i int) (int, error) {
		k := order[i%len(order)]
		got, err := sweepDigest(ctx, b, batches[k], 1)
		if err != nil {
			return k, err
		}
		if prev, dup := seen[k]; dup && prev != got {
			return k, fmt.Errorf("batch %d: records digest changed between repeats", k)
		}
		seen[k] = got
		return k, nil
	}
	in.oracle = func(ctx context.Context) (int, []error) {
		k := order[0]
		one, err := sweepDigest(ctx, b, batches[k], 1)
		if err != nil {
			return 1, []error{err}
		}
		in.digests["first_batch"] = one
		many, err := sweepDigest(ctx, b, batches[k], oracleWorkers)
		if err == nil && many != one {
			err = fmt.Errorf("batch %d: records differ between Workers=1 and Workers=%d", k, oracleWorkers)
		}
		if err != nil {
			return 1, []error{err}
		}
		return 1, nil
	}
	return in, nil
}

// sweepDigest runs one batch through Session.Sweep and hashes its
// records in emission order. A record carrying a validation error, or a
// short batch, fails the operation.
func sweepDigest(ctx context.Context, b *bed, batch []simulate.Scenario, workers int) (string, error) {
	h := sha256.New()
	records := 0
	_, err := b.sess.Sweep(ctx, batch, sweep.Options{Workers: workers, OnImpact: func(imp *sweep.Impact) error {
		if imp.Error != "" {
			return fmt.Errorf("%s: %s", imp.Name, imp.Error)
		}
		records++
		return json.NewEncoder(h).Encode(imp)
	}})
	if err != nil {
		return "", err
	}
	if records != len(batch) {
		return "", fmt.Errorf("sweep emitted %d records for %d scenarios", records, len(batch))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ---- start_cold / start_cached ---------------------------------------------

// startRef is the reference build both start workloads set up: the
// dataset loaded once through a cache directory, which leaves the
// directory filled.
type startRef struct {
	cfg   policyscope.Config
	dir   string
	path  string // the cache entry
	study *policyscope.Study
	blob  string // digest of the cache entry
}

func newStartRef(ctx context.Context, cfg policyscope.Config, tmp string) (*startRef, error) {
	dir, err := os.MkdirTemp(tmp, "ref-")
	if err != nil {
		return nil, err
	}
	c := dataset.NewCached(dataset.NewSynthetic(cfg), dir)
	study, err := c.Load(ctx)
	if err != nil {
		return nil, err
	}
	r := &startRef{cfg: cfg, dir: dir, path: filepath.Join(dir, c.Key()+".study"), study: study}
	blob, err := os.ReadFile(r.path)
	if err != nil {
		return nil, fmt.Errorf("cold load left no cache entry: %w", err)
	}
	r.blob = digest(blob)
	return r, nil
}

func (r *startRef) instance() *instance {
	return &instance{study: r.study, digests: map[string]string{"cache_entry": r.blob},
		schedule: []string{filepath.Base(r.path)},
		close:    func() { os.RemoveAll(r.dir) },
		oracle: func(ctx context.Context) (int, []error) {
			hit, err := dataset.NewCached(dataset.NewSynthetic(r.cfg), r.dir).Load(ctx)
			if err != nil {
				return 1, []error{err}
			}
			if diffs := simulate.DiffResults(r.study.Result, hit.Result); len(diffs) > 0 {
				return 1, []error{fmt.Errorf("cache hit differs from cold build: %s", diffs[0])}
			}
			return 1, nil
		}}
}

// oneClass adapts a workload whose operations are all the same.
func oneClass(op func(ctx context.Context) error) opFunc {
	return func(ctx context.Context, _ int) (int, error) { return 0, op(ctx) }
}

// warm is the second half of a start: a session over the loaded study
// with its what-if engine built, ready to serve.
func warm(study *policyscope.Study) error {
	return policyscope.NewSessionFromStudy(study).Warm()
}

func setupStartCold(ctx context.Context, cfg policyscope.Config, _ int64, tmp string) (*instance, error) {
	ref, err := newStartRef(ctx, cfg, tmp)
	if err != nil {
		return nil, err
	}
	in := ref.instance()
	in.op = oneClass(func(ctx context.Context) error {
		dir, err := os.MkdirTemp(tmp, "cold-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		study, err := dataset.NewCached(dataset.NewSynthetic(cfg), dir).Load(ctx)
		if err != nil {
			return err
		}
		if err := warm(study); err != nil {
			return err
		}
		blob, err := os.ReadFile(filepath.Join(dir, filepath.Base(ref.path)))
		if err != nil {
			return err
		}
		if got := digest(blob); got != ref.blob {
			return fmt.Errorf("cold build wrote cache entry %s, reference build wrote %s", got, ref.blob)
		}
		return nil
	})
	return in, nil
}

func setupStartCached(ctx context.Context, cfg policyscope.Config, _ int64, tmp string) (*instance, error) {
	ref, err := newStartRef(ctx, cfg, tmp)
	if err != nil {
		return nil, err
	}
	before, err := os.Stat(ref.path)
	if err != nil {
		return nil, err
	}
	wantReach := reachSum(ref.study)
	in := ref.instance()
	in.op = oneClass(func(ctx context.Context) error {
		study, err := dataset.NewCached(dataset.NewSynthetic(cfg), ref.dir).Load(ctx)
		if err != nil {
			return err
		}
		if err := warm(study); err != nil {
			return err
		}
		// A miss would regenerate and republish the entry.
		after, err := os.Stat(ref.path)
		if err != nil {
			return err
		}
		if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
			return fmt.Errorf("cache entry was rewritten: the load was not a hit")
		}
		if got := reachSum(study); got != wantReach || len(study.Result.Tables) != len(ref.study.Result.Tables) {
			return fmt.Errorf("cache hit: reach sum %d over %d tables, cold build had %d over %d",
				got, len(study.Result.Tables), wantReach, len(ref.study.Result.Tables))
		}
		return nil
	})
	return in, nil
}

// reachSum is a cheap fingerprint of a converged result, checked on
// every cache hit; the oracle's DiffResults is the full comparison.
func reachSum(s *policyscope.Study) int {
	n := 0
	for _, c := range s.Result.ReachCount {
		n += c
	}
	return n
}
