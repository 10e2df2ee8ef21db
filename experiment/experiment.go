// Package experiment is a typed catalog of named, parameterized
// analyses. Each experiment registers under a stable name with a typed
// parameter struct (decodable from JSON or key=value flags) and a typed
// result that both marshals to deterministic JSON and renders itself as
// text. The registry is generic over the context the entries run
// against and the type they return, so the catalog machinery carries no
// dependency on any particular study shape: policyscope instantiates it
// with (*Session, Result) for the paper's experiments, and package infer
// with (infer.Input, *infer.Output) for the relationship-inference
// algorithms.
//
// The design follows the query-catalog pattern of related inference
// services (CAIDA's AS-relationship pipeline, catchment-query servers):
// one shared precomputed snapshot, many named queries over it.
package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Result is a computed experiment outcome. Implementations are plain
// data structs: they marshal to deterministic JSON via encoding/json
// (map keys are sorted, slices keep their order) and render themselves
// as text through Render.
type Result interface {
	// Render writes the human-readable report (tables/charts) to w.
	Render(w io.Writer) error
}

// Kind names what a registry catalogs. It shapes only error text, which
// clients match on: "experiment: unknown experiment", "infer: unknown
// algorithm". The zero Kind is the experiment catalog's.
type Kind struct {
	// Pkg prefixes every error ("experiment", "infer").
	Pkg string
	// Noun is one entry ("experiment", "algorithm").
	Noun string
}

func (k Kind) pkg() string {
	if k.Pkg == "" {
		return "experiment"
	}
	return k.Pkg
}

func (k Kind) noun() string {
	if k.Noun == "" {
		return "experiment"
	}
	return k.Noun
}

// Experiment describes one catalog entry. S is the query context
// (a session holding the shared precomputed artifacts), R what a run
// returns.
type Experiment[S, R any] struct {
	// Name is the stable registry key ("table5", "whatif", ...).
	Name string
	// Title is the human-readable headline.
	Title string
	// Group classifies the entry ("table", "figure", "extension", ...).
	Group string
	// Order fixes the catalog iteration order (ascending, then Name).
	Order int
	// NeedsGroundTruth marks experiments that read generator ground
	// truth (topology annotations, full vantage tables) and therefore
	// cannot run against a snapshot-only dataset such as an imported
	// MRT table dump. Catalog consumers use it to filter; runners are
	// expected to return a typed error rather than panic.
	NeedsGroundTruth bool
	// Probabilistic marks inference algorithms whose output carries a
	// per-edge posterior.
	Probabilistic bool
	// NoMemo marks an entry whose parameters carry a whole input (a
	// scenario, a sweep spec) rather than a few knobs: every request is
	// its own question, so a runner that memoizes results by parameter
	// set passes it by.
	NoMemo bool
	// NewParams returns a pointer to a freshly allocated parameter
	// struct carrying the experiment's defaults, or nil when the
	// experiment takes no parameters.
	NewParams func() any
	// Plan gives the parameter sets a battery — a run of every entry in
	// catalog order, such as policyscope's RunAll — runs this entry
	// with, each nil or a pointer of the type NewParams returns. A nil
	// Plan is one run with the defaults; an empty result leaves the
	// entry out of the battery (it still runs by name). opts is the
	// battery owner's option value.
	Plan func(opts any) []any
	// Run executes the experiment. ctx carries cancellation from the
	// caller (a disconnected HTTP client, an interrupted CLI);
	// long-running experiments are expected to honor it. params is
	// either nil (use defaults) or a pointer of the type NewParams
	// returns.
	Run func(ctx context.Context, s S, params any) (R, error)
}

// Info is the serializable catalog row (what a server lists).
type Info struct {
	Name             string `json:"name"`
	Title            string `json:"title"`
	Group            string `json:"group,omitempty"`
	NeedsGroundTruth bool   `json:"needs_ground_truth,omitempty"`
	Probabilistic    bool   `json:"probabilistic,omitempty"`
	Params           any    `json:"params,omitempty"` // default parameter values
}

// Registry holds the catalog. The zero value is not usable; call
// NewRegistry.
type Registry[S, R any] struct {
	kind   Kind
	mu     sync.RWMutex
	byName map[string]*Experiment[S, R]
}

// NewRegistry returns an empty registry of the given kind.
func NewRegistry[S, R any](kind Kind) *Registry[S, R] {
	return &Registry[S, R]{kind: kind, byName: make(map[string]*Experiment[S, R])}
}

// MustRegister adds an experiment, panicking on an empty name, a
// duplicate, or a missing Run function — registration happens at init
// time, where a panic is a build error.
func (r *Registry[S, R]) MustRegister(e Experiment[S, R]) {
	if e.Name == "" {
		panic(r.kind.pkg() + ": registering with empty name")
	}
	if e.Run == nil {
		panic(r.kind.pkg() + ": " + e.Name + " has no Run function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.Name]; dup {
		panic(r.kind.pkg() + ": duplicate registration of " + e.Name)
	}
	r.byName[e.Name] = &e
}

// Get returns the experiment registered under name.
func (r *Registry[S, R]) Get(name string) (*Experiment[S, R], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	return e, ok
}

// Lookup is Get with the miss reported as a *NotFoundError.
func (r *Registry[S, R]) Lookup(name string) (*Experiment[S, R], error) {
	e, ok := r.Get(name)
	if !ok {
		return nil, &NotFoundError{Kind: r.kind, Name: name}
	}
	return e, nil
}

// All returns every experiment ordered by (Order, Name).
func (r *Registry[S, R]) All() []*Experiment[S, R] {
	r.mu.RLock()
	out := make([]*Experiment[S, R], 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns every registered name in catalog order.
func (r *Registry[S, R]) Names() []string {
	all := r.All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.Name
	}
	return out
}

// Infos returns the serializable catalog with default parameters.
func (r *Registry[S, R]) Infos() []Info {
	all := r.All()
	out := make([]Info, len(all))
	for i, e := range all {
		out[i] = Info{Name: e.Name, Title: e.Title, Group: e.Group,
			NeedsGroundTruth: e.NeedsGroundTruth, Probabilistic: e.Probabilistic}
		if e.NewParams != nil {
			out[i].Params = e.NewParams()
		}
	}
	return out
}

// NotFoundError reports a name with no registration.
type NotFoundError struct {
	Kind Kind
	Name string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("%s: unknown %s %q", e.Kind.pkg(), e.Kind.noun(), e.Name)
}

// ParamError reports unusable parameters (bad JSON, unknown field...).
type ParamError struct {
	Kind Kind
	Name string
	Err  error
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("%s %s: bad params: %v", e.Kind.pkg(), e.Name, e.Err)
}

func (e *ParamError) Unwrap() error { return e.Err }

// Run runs the named experiment with an already-decoded params value:
// nil for the defaults, or a pointer of the type NewParams returns.
func (r *Registry[S, R]) Run(ctx context.Context, s S, name string, params any) (res R, err error) {
	e, err := r.Lookup(name)
	if err != nil {
		return res, err
	}
	if params == nil && e.NewParams != nil {
		params = e.NewParams()
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return e.Run(ctx, s, params)
}

// RunJSON runs the named experiment with parameters decoded strictly
// from raw (empty raw, "null" or "{}" keep the defaults).
func (r *Registry[S, R]) RunJSON(ctx context.Context, s S, name string, raw []byte) (res R, err error) {
	params, err := r.DecodeJSONParams(name, raw)
	if err != nil {
		return res, err
	}
	return r.Run(ctx, s, name, params)
}

// RunKV runs the named experiment with key=value parameter overrides
// (the CLI flag form).
func (r *Registry[S, R]) RunKV(ctx context.Context, s S, name string, kv []string) (res R, err error) {
	params, err := r.DecodeKV(name, kv)
	if err != nil {
		return res, err
	}
	return r.Run(ctx, s, name, params)
}

// DecodeJSONParams resolves the named experiment and decodes raw JSON
// parameters over its defaults (strict; empty raw, "null" or "{}" keep
// the defaults) without running anything — the fail-fast validation a
// server performs before paying for its dataset.
func (r *Registry[S, R]) DecodeJSONParams(name string, raw []byte) (any, error) {
	e, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	raw = bytes.TrimSpace(raw)
	if e.NewParams == nil {
		if s := string(raw); s != "" && s != "null" && s != "{}" {
			return nil, r.paramError(name, fmt.Errorf("%s takes no parameters", r.kind.noun()))
		}
		return nil, nil
	}
	params := e.NewParams()
	if len(raw) > 0 {
		if err := DecodeJSON(params, raw); err != nil {
			return nil, r.paramError(name, err)
		}
	}
	return params, nil
}

// DecodeKV is DecodeJSONParams for key=value overrides (the CLI flag
// form).
func (r *Registry[S, R]) DecodeKV(name string, kv []string) (any, error) {
	e, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	if e.NewParams == nil {
		if len(kv) > 0 {
			return nil, r.paramError(name, fmt.Errorf("%s takes no parameters", r.kind.noun()))
		}
		return nil, nil
	}
	params := e.NewParams()
	for _, pair := range kv {
		key, value, found := strings.Cut(pair, "=")
		if !found {
			return nil, r.paramError(name, fmt.Errorf("want key=value, got %q", pair))
		}
		if err := Set(params, key, value); err != nil {
			return nil, r.paramError(name, err)
		}
	}
	return params, nil
}

func (r *Registry[S, R]) paramError(name string, err error) error {
	return &ParamError{Kind: r.kind, Name: name, Err: err}
}

// DecodeJSON decodes raw strictly (unknown fields rejected) into the
// parameter struct params points to.
func DecodeJSON(params any, raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(params); err != nil {
		return err
	}
	return nil
}

// Set assigns one field of the parameter struct params points to,
// addressed by its JSON tag (falling back to the Go field name,
// case-insensitively). Scalar fields parse the value directly; any
// other field type takes a JSON literal.
func Set(params any, key, value string) error {
	rv := reflect.ValueOf(params)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("params must be a non-nil pointer")
	}
	rv = rv.Elem()
	if rv.Kind() != reflect.Struct {
		return fmt.Errorf("params must point to a struct")
	}
	field, name := fieldByKey(rv, key)
	if !field.IsValid() {
		return fmt.Errorf("unknown parameter %q (have %s)", key, strings.Join(paramKeys(rv), ", "))
	}
	switch field.Kind() {
	case reflect.String:
		field.SetString(value)
	case reflect.Bool:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
		field.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(value, 10, field.Type().Bits())
		if err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
		field.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, err := strconv.ParseUint(value, 10, field.Type().Bits())
		if err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
		field.SetUint(n)
	case reflect.Float32, reflect.Float64:
		f, err := strconv.ParseFloat(value, field.Type().Bits())
		if err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
		field.SetFloat(f)
	default:
		if err := json.Unmarshal([]byte(value), field.Addr().Interface()); err != nil {
			return fmt.Errorf("parameter %s: %v", name, err)
		}
	}
	return nil
}

// fieldByKey resolves a settable struct field by JSON tag or field name.
func fieldByKey(rv reflect.Value, key string) (reflect.Value, string) {
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if strings.EqualFold(jsonName(f), key) || strings.EqualFold(f.Name, key) {
			return rv.Field(i), jsonName(f)
		}
	}
	return reflect.Value{}, ""
}

// paramKeys lists the settable parameter names for error messages.
func paramKeys(rv reflect.Value) []string {
	t := rv.Type()
	out := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			out = append(out, jsonName(f))
		}
	}
	return out
}

func jsonName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if tag == "" || tag == "-" {
		return f.Name
	}
	name, _, _ := strings.Cut(tag, ",")
	if name == "" {
		return f.Name
	}
	return name
}
