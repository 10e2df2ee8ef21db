package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

type fakeSession struct{ calls int }

type echoParams struct {
	N     int     `json:"n"`
	Name  string  `json:"name"`
	Share float64 `json:"share"`
	Deep  []int   `json:"deep"`
}

type echoResult struct {
	Params echoParams `json:"params"`
}

func (r echoResult) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "n=%d name=%s\n", r.Params.N, r.Params.Name)
	return err
}

func testRegistry() *Registry[*fakeSession, Result] {
	r := NewRegistry[*fakeSession, Result](Kind{})
	r.MustRegister(Experiment[*fakeSession, Result]{
		Name:  "echo",
		Title: "echoes its params",
		Group: "test",
		Order: 2,
		NewParams: func() any {
			return &echoParams{N: 7, Name: "default", Share: 0.5}
		},
		Run: func(_ context.Context, s *fakeSession, params any) (Result, error) {
			s.calls++
			return echoResult{Params: *params.(*echoParams)}, nil
		},
	})
	r.MustRegister(Experiment[*fakeSession, Result]{
		Name:  "bare",
		Title: "takes no params",
		Group: "test",
		Order: 1,
		Run: func(context.Context, *fakeSession, any) (Result, error) {
			return echoResult{}, nil
		},
	})
	return r
}

func TestRegistryOrderAndLookup(t *testing.T) {
	r := testRegistry()
	if names := r.Names(); len(names) != 2 || names[0] != "bare" || names[1] != "echo" {
		t.Fatalf("names = %v", names)
	}
	if _, ok := r.Get("echo"); !ok {
		t.Fatal("echo not found")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("phantom experiment")
	}
	infos := r.Infos()
	if infos[1].Name != "echo" || infos[1].Params.(*echoParams).N != 7 {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	for _, e := range []Experiment[*fakeSession, Result]{
		{Name: "", Run: func(context.Context, *fakeSession, any) (Result, error) { return nil, nil }},
		{Name: "norun"},
		{Name: "echo", Run: func(context.Context, *fakeSession, any) (Result, error) { return nil, nil }},
	} {
		r := testRegistry()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic registering %+v", e)
				}
			}()
			r.MustRegister(e)
		}()
	}
}

func TestRunJSON(t *testing.T) {
	r := testRegistry()
	sess := &fakeSession{}
	res, err := r.RunJSON(context.Background(), sess, "echo", []byte(`{"n": 3, "deep": [1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	got := res.(echoResult).Params
	if got.N != 3 || got.Name != "default" || len(got.Deep) != 2 {
		t.Fatalf("params = %+v (defaults must survive partial JSON)", got)
	}
	// Defaults when body empty.
	res, err = r.RunJSON(context.Background(), sess, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.(echoResult).Params.N != 7 {
		t.Fatalf("defaults not applied: %+v", res)
	}
	// Unknown field rejected.
	if _, err := r.RunJSON(context.Background(), sess, "echo", []byte(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Unknown experiment is a typed error.
	var nf *NotFoundError
	if _, err := r.RunJSON(context.Background(), sess, "nope", nil); !errors.As(err, &nf) {
		t.Fatalf("want NotFoundError, got %v", err)
	}
	// Param-less experiment rejects a non-empty body...
	if _, err := r.RunJSON(context.Background(), sess, "bare", []byte(`{"n": 1}`)); err == nil {
		t.Fatal("bare accepted params")
	}
	// ...but tolerates an empty object.
	if _, err := r.RunJSON(context.Background(), sess, "bare", []byte(` {} `)); err != nil {
		t.Fatal(err)
	}
}

func TestRunKVAndSet(t *testing.T) {
	r := testRegistry()
	sess := &fakeSession{}
	res, err := r.RunKV(context.Background(), sess, "echo", []string{"n=9", "name=kv", "share=0.25", "deep=[4,5,6]"})
	if err != nil {
		t.Fatal(err)
	}
	got := res.(echoResult).Params
	if got.N != 9 || got.Name != "kv" || got.Share != 0.25 || len(got.Deep) != 3 {
		t.Fatalf("params = %+v", got)
	}
	// Field-name fallback, case-insensitively.
	p := &echoParams{}
	if err := Set(p, "N", "4"); err != nil || p.N != 4 {
		t.Fatalf("Set by field name: %v %+v", err, p)
	}
	if err := Set(p, "bogus", "1"); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("unknown key error = %v", err)
	}
	if _, err := r.RunKV(context.Background(), sess, "echo", []string{"not-a-pair"}); err == nil {
		t.Fatal("malformed pair accepted")
	}
	if _, err := r.RunKV(context.Background(), sess, "bare", []string{"n=1"}); err == nil {
		t.Fatal("param-less experiment accepted kv")
	}
}

func TestRunHonorsCanceledContext(t *testing.T) {
	r := testRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := &fakeSession{}
	if _, err := r.RunJSON(ctx, sess, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sess.calls != 0 {
		t.Fatal("experiment ran despite canceled context")
	}
	if _, err := r.RunKV(ctx, sess, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestResultRenders(t *testing.T) {
	r := testRegistry()
	res, err := r.RunJSON(context.Background(), &fakeSession{}, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=7") {
		t.Fatalf("render output %q", buf.String())
	}
}
