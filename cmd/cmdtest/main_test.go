package cmdtest

import (
	"bytes"
	"errors"
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
	// bin is the policyscope command's path: built once per test process
	// by TestMain, shared by every test.
	bin string
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
		bin = filepath.Join(dir, "policyscope")
		build := exec.Command("go", "build", "-o", bin, "./cmd/policyscope")
		build.Dir = filepath.Join("..", "..")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build ./cmd/policyscope: %v\n%s", err, out)
			return 1
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

// command prepares `policyscope sub args...`.
func command(sub string, args ...string) *exec.Cmd {
	return exec.Command(bin, append([]string{sub}, args...)...)
}

// subcommands returns the subcommands `policyscope` lists when given
// none, which is a usage error: exit 2.
func subcommands(t *testing.T) map[string]bool {
	t.Helper()
	out, err := exec.Command(bin).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("policyscope with no subcommand: %v, want exit 2\n%s", err, out)
	}
	subs := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if fields := strings.Fields(line); len(fields) > 1 && strings.HasPrefix(line, "  ") {
			subs[fields[0]] = true
		}
	}
	if len(subs) == 0 {
		t.Fatalf("policyscope lists no subcommands:\n%s", out)
	}
	return subs
}

// run executes a subcommand and returns combined stdout/stderr.
func run(t *testing.T, sub string, args ...string) string {
	t.Helper()
	cmd := command(sub, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", sub, strings.Join(args, " "), err, buf.String())
	}
	return buf.String()
}

// runStdout executes a subcommand and returns its stdout alone; stderr,
// which carries logs and timings, is shown only when the run fails.
func runStdout(t *testing.T, sub string, args ...string) []byte {
	t.Helper()
	cmd := command(sub, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", sub, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes()
}

// runFail executes a subcommand expecting a non-zero exit and returns the
// combined output.
func runFail(t *testing.T, sub string, args ...string) string {
	t.Helper()
	cmd := command(sub, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err == nil {
		t.Fatalf("%s %s: expected failure\n%s", sub, strings.Join(args, " "), buf.String())
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

// daemon is a running policyscope serve.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
}

// startDaemon starts policyscope serve on a free address with args, waits for
// /healthz to answer, and kills the process when the test ends (a test
// that waits for the exit itself is not disturbed by that).
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: freeAddr(t), log: new(bytes.Buffer)}
	d.cmd = command("serve", append([]string{"-addr", d.addr}, args...)...)
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
			t.Fatalf("policyscope serve %s never became healthy: %v\n%s", d.addr, err, d.log.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
