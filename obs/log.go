package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// LogFlags is the parsed form of the shared -log-level / -log-format
// CLI flags. Zero value means "info" + "text".
type LogFlags struct {
	Level  string // debug | info | warn | error
	Format string // text | json
}

// Register wires the shared -log-level / -log-format flags into fs, so
// every command spells them identically.
func (f *LogFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Level, "log-level", "info", "log level: debug|info|warn|error")
	fs.StringVar(&f.Format, "log-format", "text", "log format: text|json")
}

// SetDefault builds the logger per the flags and installs it as the
// process-wide slog default.
func (f LogFlags) SetDefault(w io.Writer) error {
	l, err := newLogger(w, f)
	if err != nil {
		return err
	}
	slog.SetDefault(l)
	return nil
}

// newLogger builds a slog.Logger writing to w per the flags. Unknown
// levels or formats are an error so a typo'd flag fails fast instead
// of silently logging at the wrong level.
func newLogger(w io.Writer, f LogFlags) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(f.Level) {
	case "", "info":
		level = slog.LevelInfo
	case "debug":
		level = slog.LevelDebug
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", f.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(f.Format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", f.Format)
	}
}
