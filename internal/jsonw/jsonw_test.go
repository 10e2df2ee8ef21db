package jsonw

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
)

// TestEncodeIsEncoder: Encode hands over what a fresh indenting encoder
// writes, a failed Encode or Render never reaches use, and the pair a
// failure touched is not handed out again with its partial output.
func TestEncodeIsEncoder(t *testing.T) {
	v := map[string]any{"a": []int{1, 2}, "html": "<&>", "nil": nil}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var got []byte
		if err := Encode(v, func(b []byte) { got = bytes.Clone(b) }); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: %q, want %q", i, got, want.Bytes())
		}
		called := false
		if err := Encode(math.Inf(1), func([]byte) { called = true }); err == nil || called {
			t.Fatalf("round %d: encoding +Inf returned %v, use called %v", i, err, called)
		}
		boom := errors.New("boom")
		err := Render(func(w io.Writer) error {
			_, _ = io.WriteString(w, "partial output")
			return boom
		}, func([]byte) { called = true })
		if err != boom || called {
			t.Fatalf("round %d: a failed Render returned %v, use called %v", i, err, called)
		}
		if err := Render(func(w io.Writer) error {
			_, err := io.WriteString(w, "text\n")
			return err
		}, func(b []byte) { got = bytes.Clone(b) }); err != nil || string(got) != "text\n" {
			t.Fatalf("round %d: Render handed over %q, %v", i, got, err)
		}
	}
}
