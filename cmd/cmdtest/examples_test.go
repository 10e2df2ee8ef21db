package cmdtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"testing"
)

// exampleStdoutDigests are the SHA-256 of each example's stdout, taken
// before the examples moved from the Study methods onto Session.Run.
// communities printed one map in iteration order back then; its digest
// is of that output with those six lines in community order, which is
// how the example prints them now.
var exampleStdoutDigests = map[string]string{
	"quickstart":         "baf98b48433f39cbd58d233ba9bcc28c99ab5f3f39e4eb7d7eb64ff0f1dc54fd",
	"persistence":        "208b0c814d7d2bba933a360bc30367b744722116dddaacc4f6e107245fdcd706",
	"trafficengineering": "947272bcf69cd7dd58d941b797d14e8f9dab05a413ae3e204baeb50a0c178246",
	"communities":        "62ad1de117032a7c4484ea293f8ef1206f5dff305a49a1ec14718aca5ceebb3a",
}

// TestExamplesRun builds every program under examples/ and runs it: each
// is deterministic in its seed, so its stdout is pinned byte for byte.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	root := repoRoot(t)
	dir := t.TempDir()
	for name, want := range exampleStdoutDigests {
		bin := filepath.Join(dir, name)
		build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		run := exec.Command(bin)
		var stderr bytes.Buffer
		run.Stderr = &stderr
		stdout, err := run.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stderr.String())
		}
		sum := sha256.Sum256(stdout)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: stdout digest %s, want %s\n%s", name, got, want, stdout)
		}
	}
}
