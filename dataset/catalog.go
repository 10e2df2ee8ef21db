package dataset

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	policyscope "github.com/policyscope/policyscope"
)

// Catalog names sources. It is populated from the built-in presets, a
// JSON manifest, and programmatic registration, and is safe for
// concurrent use once serving starts.
type Catalog struct {
	mu      sync.RWMutex
	sources map[string]Source
	order   []string
	def     string
	// defExplicit records that def was chosen deliberately (SetDefault,
	// a manifest "default") rather than falling out of registration
	// order or the built-in presets — Flags.Catalog only overrides an
	// implicit default with the flag-derived configuration.
	defExplicit bool
}

// NewCatalog returns an empty catalog with no default.
func NewCatalog() *Catalog { return &Catalog{sources: make(map[string]Source)} }

// Builtin returns a catalog holding the built-in presets — paper (the
// laptop-scale paper reproduction every CLI defaulted to), small (a
// smoke-test universe), large (the 2000-AS, 56-peer dimension of the
// paper's actual collector) — with "paper" as the default.
func Builtin() *Catalog {
	c := NewCatalog()
	paper := policyscope.DefaultConfig()
	small := policyscope.Config{NumASes: 200, Seed: 42, CollectorPeers: 12, LookingGlassASes: 8}
	large := policyscope.Config{NumASes: 2000, Seed: 42, CollectorPeers: 56, LookingGlassASes: 15}
	for _, p := range []struct {
		name string
		cfg  policyscope.Config
	}{{"paper", paper}, {"small", small}, {"large", large}} {
		if err := c.Register(p.name, NewSynthetic(p.cfg)); err != nil {
			panic(err) // static names cannot collide
		}
	}
	c.def = "paper"
	return c
}

// Register adds a named source. Names are unique; registering a
// duplicate or an empty name is an error.
func (c *Catalog) Register(name string, src Source) error {
	if name == "" {
		return fmt.Errorf("dataset: registering with empty name")
	}
	if src == nil {
		return fmt.Errorf("dataset: %s: nil source", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sources[name]; dup {
		return fmt.Errorf("dataset: duplicate dataset %q", name)
	}
	c.sources[name] = src
	c.order = append(c.order, name)
	if c.def == "" {
		c.def = name
	}
	return nil
}

// Get returns the source registered under name.
func (c *Catalog) Get(name string) (Source, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	src, ok := c.sources[name]
	return src, ok
}

// Names returns every dataset name in registration order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// Default returns the default dataset name ("" on an empty catalog).
func (c *Catalog) Default() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.def
}

// SetDefault makes name the default dataset.
func (c *Catalog) SetDefault(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sources[name]; !ok {
		return fmt.Errorf("dataset: unknown dataset %q", name)
	}
	c.def = name
	c.defExplicit = true
	return nil
}

// enableCache wraps every registered ground-truth source in a Cached
// store at dir: those are the sources that pay a BGP simulation on a cold
// load (a CAIDA entry embeds the graph bytes, so a hit stays consistent
// with the tables it was written with). Everything else is left alone —
// study-backed sources (their Load is already free), sources already
// wrapped, and MRT sources: the spec key is the file *path*, so a cache
// entry would keep serving the old snapshot after the file changed,
// while the hit path would have to re-parse the bytes anyway.
func (c *Catalog) enableCache(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, src := range c.sources {
		if _, ok := src.(groundTruth); ok {
			c.sources[name] = NewCached(src, dir)
		}
	}
}

// Flags is the front door every binary shares: the six command-line
// flags that say which dataset to run over, declared once, and the
// catalog they yield. A binary states its own sizing defaults in the
// literal it registers: dataset.Flags{ASes: 2000, Seed: 42, Peers: 56}.
type Flags struct {
	// ASes, Seed and Peers size the flag-derived synthetic dataset.
	ASes  int
	Seed  int64
	Peers int
	// Dataset names the default dataset: a preset, a manifest entry,
	// "default" (the flag-derived configuration) or "caida:<path>".
	Dataset string
	// Manifest is a JSON dataset manifest to add to the catalog:
	//
	//	{"default": "stress", "datasets": [
	//	  {"name": "stress", "synthetic": {"ases": 5000, "seed": 7, "peers": 56}},
	//	  {"name": "rv-snapshot", "mrt": "snapshots/rv.mrt"},
	//	  {"name": "measured", "caida": {"path": "as-rel.txt", "max_prefixes": 4096}}]}
	//
	// Each entry declares exactly one of synthetic, mrt or caida; relative
	// paths resolve against the manifest file's directory.
	Manifest string
	// CacheDir is the content-addressed study cache directory ("" = off).
	CacheDir string
}

// Register declares the flags on fs; the current field values are the
// defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.ASes, "ases", f.ASes, "number of ASes in the flag-derived \"default\" dataset")
	fs.Int64Var(&f.Seed, "seed", f.Seed, "random seed (runs are deterministic per seed)")
	fs.IntVar(&f.Peers, "peers", f.Peers, "collector peer count (the vantage points)")
	fs.StringVar(&f.Dataset, "dataset", "", "dataset to run over: a preset (paper, small, large), a manifest entry, caida:<as-rel file>, or \"default\" (the flag-derived configuration, also used when empty)")
	fs.StringVar(&f.Manifest, "manifest", "", "JSON dataset manifest to add to the catalog")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "content-addressed study cache directory: a dataset converges once per directory, later loads restore it (share it across a sweep fleet)")
}

// Catalog assembles the catalog: the built-in presets, the optional
// JSON manifest, and the flag-derived synthetic configuration — cfg with
// the flags' ASes, Seed and Peers; cfg supplies what the six flags do
// not (Looking Glass count, inferred relationships, Parallelism) —
// registered under "default". The default dataset resolves by
// precedence: an explicit -dataset name, then a manifest "default", then
// the flag-derived configuration (the pre-catalog CLI behavior). A
// non-empty CacheDir wraps every ground-truth source in the on-disk
// store.
func (f *Flags) Catalog(cfg policyscope.Config) (*Catalog, error) {
	cfg.NumASes, cfg.Seed, cfg.CollectorPeers = f.ASes, f.Seed, f.Peers
	cat := Builtin()
	if f.Manifest != "" {
		if err := cat.loadManifestFile(f.Manifest); err != nil {
			return nil, err
		}
	}
	// The flag-derived configuration registers under "default" — unless
	// a manifest entry already claimed the name, in which case the
	// manifest wins (an explicit dataset beats implicit flags).
	if _, taken := cat.Get("default"); !taken {
		if err := cat.Register("default", NewSynthetic(cfg)); err != nil {
			return nil, err
		}
	}
	// "caida:<path>" names an ad-hoc CAIDA relationships file without a
	// manifest; the literal string is the dataset name.
	if path, ok := strings.CutPrefix(f.Dataset, "caida:"); ok {
		if path == "" {
			return nil, fmt.Errorf("dataset: %q names no relationships file", f.Dataset)
		}
		if _, taken := cat.Get(f.Dataset); !taken {
			src := &CAIDAFile{CAIDASpec: CAIDASpec{Path: path}, Parallelism: cfg.Parallelism}
			if err := cat.Register(f.Dataset, src); err != nil {
				return nil, err
			}
		}
	}
	name := f.Dataset
	if name == "" && !cat.defExplicit { // else the manifest chose; keep it
		name = "default"
	}
	if name != "" {
		if err := cat.SetDefault(name); err != nil {
			return nil, err
		}
	}
	if f.CacheDir != "" {
		cat.enableCache(f.CacheDir)
	}
	return cat, nil
}

// manifest is the JSON catalog file (Flags.Manifest shows one).
type manifest struct {
	// Default optionally names the default dataset.
	Default string `json:"default,omitempty"`
	// Datasets lists the entries in catalog order.
	Datasets []manifestEntry `json:"datasets"`
}

// manifestEntry declares one dataset: exactly one of Synthetic, MRT or
// CAIDA.
type manifestEntry struct {
	Name      string              `json:"name"`
	Synthetic *policyscope.Config `json:"synthetic,omitempty"`
	MRT       string              `json:"mrt,omitempty"`
	CAIDA     *CAIDASpec          `json:"caida,omitempty"`
}

// loadManifestFile registers every dataset of the manifest at path;
// relative MRT and CAIDA paths resolve against its directory.
func (c *Catalog) loadManifestFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	baseDir := filepath.Dir(path)
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("dataset: bad manifest: %w", err)
	}
	if len(m.Datasets) == 0 {
		return fmt.Errorf("dataset: manifest lists no datasets")
	}
	for i, e := range m.Datasets {
		if e.Name == "" {
			return fmt.Errorf("dataset: manifest entry %d has no name", i)
		}
		declared := 0
		for _, set := range []bool{e.Synthetic != nil, e.MRT != "", e.CAIDA != nil} {
			if set {
				declared++
			}
		}
		if declared > 1 {
			return fmt.Errorf("dataset: %s: declares more than one of synthetic, mrt, caida", e.Name)
		}
		var src Source
		switch {
		case e.Synthetic != nil:
			src = NewSynthetic(*e.Synthetic)
		case e.MRT != "":
			path := e.MRT
			if !filepath.IsAbs(path) {
				path = filepath.Join(baseDir, path)
			}
			src = NewMRTFile(path)
		case e.CAIDA != nil:
			sp := *e.CAIDA
			if sp.Path == "" {
				return fmt.Errorf("dataset: %s: caida entry has no path", e.Name)
			}
			if !filepath.IsAbs(sp.Path) {
				sp.Path = filepath.Join(baseDir, sp.Path)
			}
			src = &CAIDAFile{CAIDASpec: sp}
		default:
			return fmt.Errorf("dataset: %s: needs synthetic, mrt or caida", e.Name)
		}
		if err := c.Register(e.Name, src); err != nil {
			// Typically a clash with a built-in preset (paper, small,
			// large) or a repeated manifest name.
			return fmt.Errorf("dataset: manifest entry %d (%s): %w", i, e.Name, err)
		}
	}
	if m.Default != "" {
		if err := c.SetDefault(m.Default); err != nil {
			return err
		}
	}
	return nil
}

// Info is the serializable catalog row (what GET /datasets returns).
type Info struct {
	Name    string `json:"name"`
	Default bool   `json:"default,omitempty"`
	Spec    Spec   `json:"spec"`
	// Resident reports whether a warmed session is in the pool (set by
	// Pool.Datasets; always false straight from a catalog).
	Resident bool `json:"resident,omitempty"`
}

// Infos returns the serializable catalog in registration order.
func (c *Catalog) Infos() []Info {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Info, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, Info{Name: name, Default: name == c.def, Spec: c.sources[name].Spec()})
	}
	return out
}
