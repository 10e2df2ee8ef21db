// Package httpd is the hardened HTTP lifecycle the daemon
// (policyscope serve) runs on: an http.Server with real
// read/write/idle timeouts instead of a bare http.ListenAndServe, and a
// graceful SIGTERM/SIGINT shutdown that stops accepting connections,
// lets in-flight requests drain (bounded by DrainTimeout), and only
// then exits. A Draining hook fires before the drain starts so the
// serving layer can flip /healthz into a draining state — load
// balancers stop sending work while the listener is still answering.
//
// Flags.Register installs the lifecycle's
// -read-timeout/-write-timeout/-idle-timeout/-drain-timeout knobs.
package httpd

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/policyscope/policyscope/obs"
)

// Defaults. WriteTimeout defaults to 0 (disabled) deliberately: the
// /sweep and /sweep/shard endpoints stream NDJSON for as long as the
// sweep runs, and http.Server's WriteTimeout is an absolute deadline on
// the whole response, not an idle bound — a nonzero default would kill
// every long sweep mid-stream. Operators who serve only cheap queries
// can opt in via -write-timeout.
const (
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultReadTimeout       = time.Minute
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultDrainTimeout      = 30 * time.Second
)

// Config is one daemon's server lifecycle configuration.
type Config struct {
	// Addr is the listen address (":8080").
	Addr string
	// ReadHeaderTimeout bounds reading one request's header block.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading one whole request (header + body).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one whole response; 0 disables it
	// (required for streaming sweep endpoints — see package comment).
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a keep-alive connection may sit idle.
	IdleTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown: how long in-flight
	// requests get to finish after SIGTERM before the server closes
	// their connections hard.
	DrainTimeout time.Duration
	// Draining, when set, runs as soon as shutdown begins — before the
	// listener closes — so the handler can report itself draining.
	Draining func()
}

func (c Config) withDefaults() Config {
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = DefaultReadHeaderTimeout
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	return c
}

// Flags is the shared daemon flag set for the lifecycle knobs.
type Flags struct {
	readHeader time.Duration
	read       time.Duration
	write      time.Duration
	idle       time.Duration
	drain      time.Duration
}

// Register installs the lifecycle flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.readHeader, "read-header-timeout", DefaultReadHeaderTimeout, "HTTP request-header read timeout")
	fs.DurationVar(&f.read, "read-timeout", DefaultReadTimeout, "HTTP whole-request read timeout")
	fs.DurationVar(&f.write, "write-timeout", 0, "HTTP whole-response write timeout (0 = off; nonzero kills long NDJSON sweep streams)")
	fs.DurationVar(&f.idle, "idle-timeout", DefaultIdleTimeout, "HTTP keep-alive idle timeout")
	fs.DurationVar(&f.drain, "drain-timeout", DefaultDrainTimeout, "graceful-shutdown drain bound: how long in-flight requests get after SIGTERM")
}

// Config materializes the flag values for one listen address.
func (f *Flags) Config(addr string) Config {
	return Config{
		Addr:              addr,
		ReadHeaderTimeout: f.readHeader,
		ReadTimeout:       f.read,
		WriteTimeout:      f.write,
		IdleTimeout:       f.idle,
		DrainTimeout:      f.drain,
	}
}

var (
	mDrains = obs.NewCounter("policyscope_httpd_drains_total",
		"Graceful shutdowns initiated (SIGTERM/SIGINT or context cancellation).")
	mDrainSeconds = obs.NewHistogram("policyscope_httpd_drain_seconds",
		"Graceful-shutdown drain duration, signal to last in-flight request done.", nil)
	mDrainTimeouts = obs.NewCounter("policyscope_httpd_drain_timeouts_total",
		"Drains that hit DrainTimeout and closed in-flight connections hard.")
)

// Run serves h at cfg.Addr until ctx is canceled or the process
// receives SIGTERM/SIGINT, then shuts down gracefully: cfg.Draining
// fires, the listener closes, and in-flight requests get
// cfg.DrainTimeout to finish. A clean drain returns nil; a drain that
// times out force-closes the remaining connections and returns the
// shutdown error, so callers can exit nonzero when requests were cut.
func Run(ctx context.Context, cfg Config, h http.Handler) error {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	return serve(ctx, cfg, h, ln)
}

// serve is Run past the Listen, split for tests that need the bound
// listener.
func serve(ctx context.Context, cfg Config, h http.Handler, ln net.Listener) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener failed outright (port taken away, fd limit);
		// nothing is draining.
		return err
	case <-sigCtx.Done():
	}

	stop() // a second signal during the drain kills the process normally
	mDrains.Inc()
	start := time.Now()
	if cfg.Draining != nil {
		cfg.Draining()
	}
	slog.Info("draining", "drain_timeout", cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	mDrainSeconds.ObserveSince(start)
	if err != nil {
		// In-flight work outlived the bound: close the connections hard
		// so the process still exits promptly, and report the cut.
		mDrainTimeouts.Inc()
		_ = srv.Close()
		slog.Warn("drain timed out; connections closed", "after", time.Since(start).Round(time.Millisecond))
		return err
	}
	slog.Info("drained", "elapsed", time.Since(start).Round(time.Millisecond))
	// Serve has returned http.ErrServerClosed by now; a clean drain is a
	// clean exit.
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return nil
}
