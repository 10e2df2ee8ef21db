package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// document is what -all prints and -compare reads: every metric of every
// workload from one commit on one machine.
type document struct {
	Env       environment            `json:"env"`
	Seconds   int                    `json:"seconds"`
	Runs      int                    `json:"runs"`
	Workloads []workloadDoc          `json:"workloads"`
	Ladder    map[string]metricValue `json:"ladder"`
}

type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

type workloadDoc struct {
	Name      string                 `json:"name"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Samples   []int                  `json:"samples"` // operations per untraced window
	Digests   map[string]string      `json:"digests"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// series is one end-to-end metric over the untraced runs.
type series struct {
	Median float64   `json:"median"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// spread is the run-to-run range as a share of the median.
func (s series) spread() float64 {
	if len(s.Values) == 0 || s.Median == 0 {
		return 0
	}
	lo, hi := s.Values[0], s.Values[0]
	for _, v := range s.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return (hi - lo) / s.Median
}

func (d *document) correct() bool {
	for _, w := range d.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// runAll runs every workload in child processes of this binary — the
// same single runs the driver makes, each with a fresh heap — and
// collects them into one document.
func runAll(ctx context.Context, seed int64, seconds int, progress io.Writer) (*document, error) {
	const runs = 3 // untraced runs per workload: a median, and a spread for -compare's "unresolved"
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := func(args ...string) (runDetail, runResult, error) {
		var d runDetail
		var r runResult
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = progress
		out, err := cmd.Output() // waits for the child to end
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if len(lines) < 2 {
			return d, r, fmt.Errorf("bench %s: %v: no result", strings.Join(args, " "), err)
		}
		if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
			return d, r, err
		}
		return d, r, json.Unmarshal(lines[len(lines)-1], &r)
	}
	doc := &document{Seconds: seconds, Runs: runs, Env: environment{
		Commit: commit(ctx), Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
	}}
	common := []string{"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
	for _, wl := range workloads {
		wd := workloadDoc{Name: wl.name, EndToEnd: map[string]series{}, PerLayer: map[string]metricValue{}}
		for i := 0; i <= runs; i++ {
			traced := i == runs
			fmt.Fprintf(progress, "bench: %s run %d/%d traced=%v\n", wl.name, i+1, runs+1, traced)
			args := append([]string{"-workload", wl.name, "-trace", strconv.Itoa(btoi(traced))}, common...)
			d, r, err := child(args...)
			if err != nil {
				return nil, err
			}
			wd.Attempted += r.Attempted
			wd.Failed += r.Failed
			if traced {
				wd.PerLayer = r.Metrics
				continue
			}
			wd.Samples = append(wd.Samples, d.Samples)
			wd.Digests = d.Digests
			for name, m := range r.Metrics {
				s := wd.EndToEnd[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				s.Median = median(s.Values)
				wd.EndToEnd[name] = s
			}
		}
		wd.FailShare = float64(wd.Failed) / float64(wd.Attempted)
		doc.Workloads = append(doc.Workloads, wd)
	}
	fmt.Fprintln(progress, "bench: ladder")
	_, r, err := child("-ladder")
	if err != nil {
		return nil, err
	}
	doc.Ladder = r.Metrics
	return doc, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit names the source the numbers belong to, with "-dirty" when the
// tree differs from it; "unknown" outside git.
func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// Verdicts of -compare, per (end-to-end metric, workload).
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one end-to-end metric of a baseline a and a candidate
// b. A metric whose run-to-run spread on either side exceeds the bound
// cannot be called unchanged: it is unresolved, unless every run of b
// reads better than every run of a (ok) or every run reads worse by more
// than the bound (regressed).
func judge(def metricDef, a, b series) string {
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if a.spread() <= def.Bound && b.spread() <= def.Bound {
		if sign*(b.Median-a.Median)/a.Median > def.Bound {
			return verdictRegressed
		}
		return verdictOK
	}
	allBetter, allWorse := true, true
	for _, bv := range b.Values {
		for _, av := range a.Values {
			d := sign * (bv - av) / av
			allBetter = allBetter && d < 0
			allWorse = allWorse && d > def.Bound
		}
	}
	switch {
	case allBetter:
		return verdictOK
	case allWorse:
		return verdictRegressed
	}
	return verdictUnresolved
}

// compareFiles prints b against a and reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %s  %d cpu\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.Go, a.Env.NProc)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  %s  %d cpu\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.Go, b.Env.NProc)
	byName := map[string]workloadDoc{}
	for _, wd := range a.Workloads {
		byName[wd.Name] = wd
	}
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: not in a\n", wb.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wb.Name)
		row := func(name, unit string, va, vb, delta float64, verdict string) {
			fmt.Fprintf(w, "  %-32s %14.4f -> %14.4f %-6s %+7.1f %%  %s\n", name, va, vb, unit, delta*100, verdict)
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			verdict := judge(def, sa, sb)
			row(def.Name, def.Unit, sa.Median, sb.Median, (sb.Median-sa.Median)/sa.Median, verdict)
			regressed = regressed || verdict == verdictRegressed
		}
		verdict := verdictOK
		if wb.FailShare > wa.FailShare {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "  %-32s %14.4f -> %14.4f %-6s %9s  %s\n", "fail_share", wa.FailShare, wb.FailShare, "ratio", "", verdict)
		if a.Env.Seed == b.Env.Seed {
			verdict = verdictOK
			if !maps.Equal(wa.Digests, wb.Digests) {
				verdict, regressed = verdictRegressed, true
			}
			fmt.Fprintf(w, "  %-32s %49s  %s\n", "output digests", "", verdict)
		}
		for _, def := range perLayer {
			ma, mb := wa.PerLayer[def.Name], wb.PerLayer[def.Name]
			delta := 0.0
			if ma.Value != 0 {
				delta = (mb.Value - ma.Value) / ma.Value
			}
			row(def.Name, def.Unit, ma.Value, mb.Value, delta, "")
		}
	}
	names := make([]string, 0, len(b.Ladder))
	for name := range b.Ladder {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nladder")
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.4f -> %14.4f %s\n", name, a.Ladder[name].Value, b.Ladder[name].Value, b.Ladder[name].Unit)
	}
	return regressed, nil
}
