// Command policyscope reproduces "On Inferring and Characterizing
// Internet Routing Policies" (IMC 2003) and serves its machinery. The
// paper's pipeline — collect tables, infer relationships, characterise
// import and export policies — is one command with a subcommand per
// stage:
//
//	policyscope repro        [flags]   the experiment suite, every table and figure
//	policyscope simulate     [flags]   a dataset's collector snapshot as MRT
//	policyscope sweep        [flags]   a batch what-if sweep, local or over a fleet
//	policyscope serve        [flags]   the HTTP query service and sweep-fleet worker
//	policyscope topogen      [flags]   a synthetic Internet's ground-truth files
//	policyscope irrgen       [flags]   a synthetic IRR database, or its Table 3 analysis
//	policyscope inferrel     [flags]   AS relationships inferred from an MRT snapshot
//	policyscope inferexport  [flags]   the Figure 4 selective-announcement detector
//	policyscope lookingglass [flags]   Cisco-style queries against a vantage AS's table
//
// Each subcommand has its own flags (policyscope <sub> -h lists them).
// Usage errors exit 2 and failures exit 1, printed as "<sub>: <error>"
// or, for repro, sweep and serve, as a structured "fatal" log line.
// Every file a subcommand writes takes '-' for stdout.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
)

// command is one subcommand: setup registers its flags on fs and returns
// the body, which runs once fs has parsed the arguments.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func() error
	// logged commands report failures through slog, which their
	// -log-level and -log-format flags configure.
	logged bool
}

var commands = []command{
	{"repro", "run the paper's experiment suite and print every table and figure", reproCmd, true},
	{"simulate", "converge a dataset and write its collector snapshot as MRT", simulateCmd, false},
	{"sweep", "run a batch what-if sweep, locally or over a serve fleet", sweepCmd, true},
	{"serve", "serve the experiment catalog over HTTP; a distributed-sweep worker", serveCmd, true},
	{"topogen", "generate a synthetic Internet and write its ground truth", topogenCmd, false},
	{"irrgen", "generate a synthetic IRR database, or run the Table 3 analysis on one", irrgenCmd, false},
	{"inferrel", "infer AS relationships from an MRT snapshot", inferrelCmd, false},
	{"inferexport", "detect selective announcements in an MRT snapshot (Figure 4)", inferexportCmd, false},
	{"lookingglass", "query a vantage AS's table the way the paper queried Looking Glasses", lookingglassCmd, false},
}

func main() {
	for _, c := range commands {
		if len(os.Args) > 1 && os.Args[1] == c.name {
			fs := flag.NewFlagSet(c.name, flag.ExitOnError)
			body := c.setup(fs)
			_ = fs.Parse(os.Args[2:]) // ExitOnError: a bad flag exits 2 inside Parse
			exit(c, body())
		}
	}
	fmt.Fprintln(os.Stderr, "usage: policyscope <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

// exit is the one way out of a subcommand: 0 on success, 2 for a usage
// error, 1 for any other failure.
func exit(c command, err error) {
	var usage usageError
	switch {
	case err == nil:
		os.Exit(0)
	case errors.As(err, &usage):
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		os.Exit(2)
	case c.logged:
		slog.Error("fatal", "err", err)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
	}
	os.Exit(1)
}

// usageError is a bad combination of flags: it exits 2, like a flag the
// subcommand does not define.
type usageError string

func (e usageError) Error() string { return string(e) }

// paramList collects repeated -p key=value flags.
type paramList []string

func (p *paramList) String() string { return fmt.Sprint([]string(*p)) }

func (p *paramList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

// profileFlags are -cpuprofile and -memprofile.
type profileFlags struct{ cpu, mem string }

func (p *profileFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file on exit")
}

// writeOutput creates path ('-' = stdout) and hands fill a buffered
// writer on it. The error is fill's or the flush's, joined with the
// file's Close: a full disk fails the subcommand.
func writeOutput(path string, fill func(io.Writer) error) (err error) {
	f := os.Stdout
	if path != "-" {
		if f, err = os.Create(path); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		return err
	}
	return w.Flush()
}

// writeJSON writes v as indented, deterministic JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// readInput parses the file at path through a buffered reader.
func readInput[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(bufio.NewReader(f))
}
