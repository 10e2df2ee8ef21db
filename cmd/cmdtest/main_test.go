package cmdtest

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var (
	// bins maps every cmd/ binary's name to its path: built once per test
	// process by TestMain, shared by every test.
	bins map[string]string
	// cacheDir is the test process's shared study cache: every invocation
	// that does not itself assert a cold build passes it as -cache-dir, so
	// a dataset several tests (or several workers of one test) run over
	// converges once — the product's cache, tested by being used.
	cacheDir string
)

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run()) // every test here skips in -short mode
	}
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "cmdtest-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		cacheDir = filepath.Join(dir, "cache")
		binDir := filepath.Join(dir, "bin") + string(filepath.Separator)
		build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
		build.Dir = filepath.Join("..", "..")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build ./cmd/...: %v\n%s", err, out)
			return 1
		}
		entries, err := os.ReadDir(binDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		bins = make(map[string]string, len(entries))
		for _, e := range entries {
			bins[e.Name()] = filepath.Join(binDir, e.Name())
		}
		return m.Run()
	}())
}

// repoRoot resolves the module root (two levels above this package).
func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(abs, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", abs, err)
	}
	return abs
}

// run executes a binary and returns combined stdout/stderr.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, buf.String())
	}
	return buf.String()
}

// runStdout executes a binary and returns its stdout alone; stderr, which
// carries logs and timings, is shown only when the run fails.
func runStdout(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes()
}

// runFail executes a binary expecting a non-zero exit and returns the
// combined output.
func runFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err == nil {
		t.Fatalf("%s %s: expected failure\n%s", filepath.Base(bin), strings.Join(args, " "), buf.String())
	}
	return buf.String()
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// daemon is a running policyscoped.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
}

// startDaemon starts policyscoped on a free address with args, waits for
// /healthz to answer, and kills the process when the test ends (a test
// that waits for the exit itself is not disturbed by that).
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: freeAddr(t), log: new(bytes.Buffer)}
	d.cmd = exec.Command(bins["policyscoped"], append([]string{"-addr", d.addr}, args...)...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("policyscoped %s never became healthy: %v\n%s", d.addr, err, d.log.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
