package reports

import (
	"bytes"
	"strings"
	"testing"
)

// Golden tests: the renderers' byte-exact output. The JSON surface
// (policyscope repro -format json) is byte-stable by construction; these pin
// the text surface the same way, so alignment or padding regressions
// show up as a readable diff.

func renderTable(t *testing.T, tb *Table) string {
	t.Helper()
	var buf bytes.Buffer
	n, err := tb.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.String()
}

func renderChart(t *testing.T, c *Chart) string {
	t.Helper()
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.String()
}

func TestTableGolden(t *testing.T) {
	tb := &Table{
		Title:   "Table X: golden",
		Columns: []string{"AS", "name", "% SA"},
		Note:    "a note",
	}
	tb.AddRow("AS1", "alpha", "48.6")
	tb.AddRow("AS6453", "b", "7")
	want := strings.Join([]string{
		"Table X: golden",
		"AS      name   % SA",
		"------  -----  ----",
		"AS1     alpha  48.6",
		"AS6453  b      7",
		"  a note",
		"",
		"",
	}, "\n")
	if got := renderTable(t, tb); got != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestTableGoldenWideCells(t *testing.T) {
	// A body cell wider than its header stretches the column; trailing
	// spaces are trimmed per line.
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow("very-long-cell-value", "x")
	tb.AddRow("s", "")
	want := strings.Join([]string{
		"a                     b",
		"--------------------  -",
		"very-long-cell-value  x",
		"s",
		"",
		"",
	}, "\n")
	if got := renderTable(t, tb); got != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestTableGoldenEmptyRows(t *testing.T) {
	// No rows: title, header and rule still render.
	tb := &Table{Title: "Empty", Columns: []string{"only", "header"}}
	want := strings.Join([]string{
		"Empty",
		"only  header",
		"----  ------",
		"",
		"",
	}, "\n")
	if got := renderTable(t, tb); got != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
	// Rows longer than the header are truncated to the column count.
	tb2 := &Table{Columns: []string{"a"}}
	tb2.AddRow("1", "overflow")
	if got := renderTable(t, tb2); strings.Contains(got, "overflow") {
		t.Fatalf("overflow cell rendered: %q", got)
	}
}

func TestChartGoldenLinear(t *testing.T) {
	c := &Chart{
		Title:  "Figure X: golden",
		XLabel: "epoch",
		YLabel: "prefixes",
		X:      []string{"1", "2"},
		Series: map[string][]float64{
			"all": {10, 5},
			"sa":  {0, 10},
		},
		SeriesOrder: []string{"all", "sa"},
		Width:       10,
	}
	want := strings.Join([]string{
		"Figure X: golden",
		"  y: prefixes",
		"  1      all |########## 10",
		"         sa  | 0",
		"  2      all |##### 5",
		"         sa  |########## 10",
		"  x: epoch",
		"",
		"",
	}, "\n")
	if got := renderChart(t, c); got != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestChartGoldenLogAndRagged(t *testing.T) {
	// Log scaling marks the axis, and a series shorter than X simply
	// stops contributing rows.
	c := &Chart{
		YLabel: "n",
		X:      []string{"a", "bb", "ccc"},
		Series: map[string][]float64{
			"long":  {1, 10, 100},
			"short": {1},
		},
		SeriesOrder: []string{"long", "short"},
		LogY:        true,
		Width:       8,
	}
	want := strings.Join([]string{
		"  y: n (log scale)",
		"  a    long  |# 1",
		"       short |# 1",
		"  bb   long  |#### 10",
		"  ccc  long  |######## 100",
		"",
		"",
	}, "\n")
	if got := renderChart(t, c); got != want {
		t.Fatalf("golden mismatch:\n got: %q\nwant: %q", got, want)
	}
}
