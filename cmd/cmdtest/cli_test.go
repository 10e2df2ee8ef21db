package cmdtest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFlagsGolden pins every subcommand's flag names and the defaults
// its -h prints, one `sub -flag default` line each: a flag added,
// removed or re-defaulted changes testdata/flags_golden.txt in the same
// commit.
func TestFlagsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for sub := range subcommands(t) {
		out, _ := command(sub, "-h").CombinedOutput()
		for flag, def := range parseHelp(string(out)) {
			lines = append(lines, strings.TrimSpace(fmt.Sprintf("%s -%s %s", sub, flag, def)))
		}
	}
	sort.Strings(lines)
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		t.Errorf("subcommand flags drifted from testdata/flags_golden.txt:\nnot pinned: %q\nmissing: %q",
			without(lines, wantLines), without(wantLines, lines))
	}
}

// without returns the lines of a that b does not hold.
func without(a, b []string) []string {
	in := map[string]bool{}
	for _, line := range b {
		in[line] = true
	}
	var out []string
	for _, line := range a {
		if !in[line] {
			out = append(out, line)
		}
	}
	return out
}

// TestWriteErrors: a subcommand whose output file cannot be written
// exits 1 and claims no success. /dev/full accepts the open and fails
// every write, so the error surfaces at the write or at the flush.
func TestWriteErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	mrtPath := filepath.Join(t.TempDir(), "base.mrt")
	dataset := []string{"-ases", "40", "-seed", "3", "-peers", "5"}
	run(t, "simulate", append(dataset, "-out", mrtPath)...)
	for _, args := range [][]string{
		{"topogen", "-ases", "40", "-seed", "3", "-rel", "/dev/full"},
		{"irrgen", "-ases", "40", "-seed", "3", "-out", "/dev/full"},
		append([]string{"simulate", "-out", "/dev/full"}, dataset...),
		{"inferrel", "-in", mrtPath, "-out", "/dev/full"},
		append([]string{"sweep", "-max", "5", "-quiet", "-records", "/dev/full"}, dataset...),
	} {
		out, err := command(args[0], args[1:]...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want 1\n%s", strings.Join(args, " "), err, out)
		}
		if !strings.Contains(string(out), "no space left on device") {
			t.Errorf("%s: the write error is not reported:\n%s", strings.Join(args, " "), out)
		}
		for _, success := range []string{"wrote", "sweep done"} {
			if strings.Contains(string(out), success) {
				t.Errorf("%s: reports %q after a failed write:\n%s", strings.Join(args, " "), success, out)
			}
		}
	}
}
