package cmdtest

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestREADMEClaims executes what README.md states about the product's
// runtime surface, against the binaries the smoke tests run:
//
//   - every -flag on a command line README shows (fenced sh blocks, and
//     inline code spans that start with a binary's name) is a flag of
//     that binary;
//   - every default README states in a table — a row whose first cell is
//     `binary -flag` under a "default" column, or a binary's row under
//     `-flag` column headings — is the default that binary's -h prints;
//   - every policyscope_* name is a metric family policyscoped registers,
//     and every policyscope_session_* and policyscope_engine_* family it
//     registers is named;
//   - every curl line addresses a route the server serves, with the
//     method README gives it, and one that asks for a ?format= is
//     answered 200 in that format.
//
// A claim README stops making stops being checked; a claim it makes that
// the product does not keep fails here.
func TestREADMEClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	help := map[string]map[string]string{} // binary -> flag -> printed default
	flagsOf := func(bin string) map[string]string {
		if help[bin] == nil {
			out, _ := exec.Command(bins[bin], "-h").CombinedOutput()
			help[bin] = parseHelp(string(out))
			if len(help[bin]) == 0 {
				t.Fatalf("%s -h lists no flags:\n%s", bin, out)
			}
		}
		return help[bin]
	}

	// Command lines: flags exist.
	var commands [][]string
	for _, block := range fencedBlocks(readme, "sh") {
		commands = append(commands, shellCommands(block)...)
	}
	for _, span := range codeSpans(readme) {
		commands = append(commands, shellCommands(span)...)
	}
	checked := 0
	for _, cmd := range commands {
		bin, args := ourBinary(cmd)
		if bin == "" {
			continue
		}
		for _, arg := range args {
			if len(arg) < 2 || arg[0] != '-' || !isLetter(arg[1]) {
				continue
			}
			name, _, _ := strings.Cut(arg[1:], "=")
			if _, ok := flagsOf(bin)[name]; !ok {
				t.Errorf("README shows `%s`, but %s has no flag -%s", strings.Join(cmd, " "), bin, name)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Errorf("only %d flags found on README command lines; the parser lost the README", checked)
	}

	// Tables: stated defaults are the printed defaults.
	stated := 0
	for _, claim := range tableDefaults(readme) {
		got, ok := flagsOf(claim.bin)[claim.flag]
		if !ok {
			t.Errorf("README tabulates %s -%s, which %s does not have", claim.bin, claim.flag, claim.bin)
			continue
		}
		if want := claim.def; got != want && !(got == "" && (want == "0" || want == "0s" || want == "false")) {
			t.Errorf("README states %s -%s defaults to %q; -h prints %q", claim.bin, claim.flag, claim.def, got)
		}
		stated++
	}
	if stated < 15 {
		t.Errorf("only %d defaults found in README tables; the parser lost the README", stated)
	}

	// Metric names and routes, against a live daemon.
	d := startDaemon(t, append(workerDataset, "-cache-dir", cacheDir)...)
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	families := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(string(exposition), -1) {
		families[m[1]] = true
	}
	names := regexp.MustCompile(`policyscope_[a-z0-9_]+`).FindAllString(readme, -1)
	for _, name := range names {
		if !families[name] {
			t.Errorf("README names %s, which policyscoped does not register", name)
		}
	}
	if len(names) < 10 {
		t.Errorf("only %d metric names found in README", len(names))
	}
	for family := range families {
		for _, prefix := range []string{"policyscope_session_", "policyscope_engine_"} {
			if strings.HasPrefix(family, prefix) && !strings.Contains(readme, family) {
				t.Errorf("policyscoped registers %s, which README's monitoring table does not name", family)
			}
		}
	}

	curls := 0
	for _, cmd := range commands {
		if cmd[0] != "curl" {
			continue
		}
		method, url, body := "", "", ""
		for i := 1; i < len(cmd); i++ {
			switch arg := cmd[i]; {
			case arg == "-X" && i+1 < len(cmd):
				i++
				method = cmd[i]
			case arg == "-d" && i+1 < len(cmd):
				i++
				body = cmd[i]
			case strings.Contains(arg, "localhost:"):
				url = arg
			}
		}
		if url == "" {
			t.Errorf("README curl line addresses no localhost URL: %v", cmd)
			continue
		}
		if method == "" {
			method = http.MethodGet
			if body != "" {
				method = http.MethodPost
			}
		}
		_, rest, _ := strings.Cut(url, "localhost:")
		_, path, _ := strings.Cut(rest, "/")
		req, err := http.NewRequest(method, "http://"+d.addr+"/"+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s /%s: %v", method, path, err)
		}
		answer, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// Every route the server registers stamps X-Request-ID, whatever
		// its status; the exposition endpoint bypasses that middleware.
		// The mux's own 404 and 405 do neither.
		served := resp.Header.Get("X-Request-ID") != "" ||
			(strings.HasPrefix(path, "metrics") && resp.StatusCode == http.StatusOK)
		if !served {
			t.Errorf("README shows %s /%s, which the server does not route (status %d)", method, path, resp.StatusCode)
		}
		// A format README shows is one the server speaks: anything but
		// json and text is refused, so a stale example fails here.
		if _, format, ok := strings.Cut(path, "format="); ok {
			format, _, _ = strings.Cut(format, "&")
			wantType := map[string]string{"json": "application/json", "text": "text/plain"}[format]
			if gotType := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK ||
				wantType == "" || !strings.HasPrefix(gotType, wantType) {
				t.Errorf("README shows %s /%s: status %d, Content-Type %q: %s",
					method, path, resp.StatusCode, gotType, answer)
			}
		}
		curls++
	}
	if curls < 8 {
		t.Errorf("only %d curl lines found in README", curls)
	}
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// parseHelp reads flag.PrintDefaults output: flag name -> the default it
// prints ("" when it prints none, i.e. the type's zero value).
func parseHelp(out string) map[string]string {
	flags := map[string]string{}
	header := regexp.MustCompile(`^  -(\S+)`)
	deflt := regexp.MustCompile(`\(default (.*)\)$`)
	name := ""
	for _, line := range strings.Split(out, "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			name = m[1]
			flags[name] = ""
		} else if m := deflt.FindStringSubmatch(line); m != nil && name != "" {
			flags[name] = strings.Trim(m[1], `"`)
		}
	}
	return flags
}

// fencedBlocks returns the bodies of README's ```lang blocks.
func fencedBlocks(md, lang string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```"+lang:
			in, cur = true, nil
		case in && strings.TrimSpace(line) == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}

// codeSpans returns the inline `code` spans outside fenced blocks.
func codeSpans(md string) []string {
	var prose []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
		} else if !in {
			prose = append(prose, line)
		}
	}
	var spans []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// shellCommands splits shell text into commands of tokens: quotes group,
// backslash-newline continues a line, # starts a comment, and | & ; and
// newlines end a command. It is as much shell as README uses.
func shellCommands(text string) [][]string {
	var cmds [][]string
	var cmd []string
	var tok strings.Builder
	inTok := false
	endTok := func() {
		if inTok {
			cmd = append(cmd, tok.String())
			tok.Reset()
			inTok = false
		}
	}
	endCmd := func() {
		endTok()
		if len(cmd) > 0 {
			cmds = append(cmds, cmd)
			cmd = nil
		}
	}
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c == '\\' && i+1 < len(text) && text[i+1] == '\n':
			i++
			endTok()
		case c == '\'' || c == '"':
			inTok = true
			for i++; i < len(text) && text[i] != c; i++ {
				tok.WriteByte(text[i])
			}
		case c == '#' && !inTok:
			for i < len(text) && text[i] != '\n' {
				i++
			}
			endCmd()
		case c == '\n' || c == '|' || c == '&' || c == ';':
			endCmd()
		case c == ' ' || c == '\t':
			endTok()
		default:
			inTok = true
			tok.WriteByte(c)
		}
	}
	endCmd()
	return cmds
}

// ourBinary recognizes a command that runs one of the repo's binaries —
// `name ...`, `cmd/name ...` or `go run ./cmd/name ...` — and returns its
// name and arguments.
func ourBinary(cmd []string) (string, []string) {
	if len(cmd) >= 3 && cmd[0] == "go" && cmd[1] == "run" {
		cmd = cmd[2:]
	}
	name := strings.TrimPrefix(strings.TrimPrefix(cmd[0], "./"), "cmd/")
	if _, ok := bins[name]; !ok {
		return "", nil
	}
	return name, cmd[1:]
}

type defaultClaim struct{ bin, flag, def string }

// tableDefaults reads the defaults README tabulates. Two table shapes
// state them: a row `binary -flag` with a value under a "default" column,
// and a row of binaries under `-flag` column headings. Values are code
// spans; a cell without one states nothing. (-h prints no default for a
// zero value, so a stated 0, 0s or false matches a flag that prints none.)
func tableDefaults(md string) []defaultClaim {
	span := regexp.MustCompile("`([^`]*)`")
	spansOf := func(cell string) []string {
		var out []string
		for _, m := range span.FindAllStringSubmatch(cell, -1) {
			out = append(out, m[1])
		}
		return out
	}
	cellsOf := func(line string) []string {
		line = strings.ReplaceAll(line, `\|`, "\x00")
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range cells {
			cells[i] = strings.ReplaceAll(cells[i], "\x00", "|")
		}
		return cells
	}
	var claims []defaultClaim
	var header []string
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			header = nil
			continue
		}
		cells := cellsOf(line)
		if header == nil {
			header = cells
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(cells[0]), "--") || len(cells) != len(header) {
			continue
		}
		first := spansOf(cells[0])
		for j := 1; j < len(cells); j++ {
			vals := spansOf(cells[j])
			if len(vals) != 1 {
				continue
			}
			h := spansOf(header[j])
			switch {
			case strings.EqualFold(strings.TrimSpace(header[j]), "default"):
				for _, f := range first {
					if bin, flag, ok := strings.Cut(f, " -"); ok && bins[bin] != "" {
						claims = append(claims, defaultClaim{bin, flag, vals[0]})
					}
				}
			case len(h) == 1 && strings.HasPrefix(h[0], "-"):
				for _, bin := range first {
					if bins[bin] != "" {
						claims = append(claims, defaultClaim{bin, h[0][1:], vals[0]})
					}
				}
			}
		}
	}
	return claims
}
