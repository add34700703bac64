// Package campaign holds the one checkpoint every cell-structured
// campaign shares: the evalmc Monte-Carlo evaluation (Table 2, Fig. 8),
// the workload outcome engine and the distributed cluster coordinator.
//
// A campaign is a grid of (scheme, key) cells, each drawing from its
// own deterministic stream, so completed cells can be restored in any
// order and the remaining ones are unaffected: a resumed campaign is
// bit-identical to an uninterrupted one. The checkpoint file records a
// schema tag, the caller's config echo and the completed cells; a load
// refuses any file whose echo differs from the resuming run's.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"hbm2ecc/internal/httpx"
	"hbm2ecc/internal/resilience"
)

// Schema tags every checkpoint file; files without it (or with another
// tag) are refused.
const Schema = "hbm2ecc/campaign_checkpoint/v1"

// MaxFileBytes bounds a checkpoint file; larger files are refused
// before they are read.
const MaxFileBytes = 64 << 20

// file is the on-disk layout. Results are keyed scheme → K.String() so
// the JSON stays human-readable.
type file[R any] struct {
	Schema  string                  `json:"schema"`
	Config  json.RawMessage         `json:"config"`
	Results map[string]map[string]R `json:"results"`
}

// Checkpoint accumulates the completed cells of one campaign and, when
// it has a path, saves them atomically after every Store. Lookup and
// Store are safe for concurrent use.
type Checkpoint[K fmt.Stringer, R any] struct {
	path string

	mu  sync.Mutex
	f   file[R]
	err error // first save failure
}

// Open wires a campaign's -checkpoint/-resume pair. With resumePath it
// loads that file strictly — refusing a wrong schema, unknown fields,
// trailing data, a file over MaxFileBytes, and a config echo that
// differs from config — and saves back to checkpointPath, or to resumePath when
// checkpointPath is empty. With only checkpointPath it starts empty.
// With neither it returns nil: checkpointing is off.
//
// config is the caller's echo of every option that shapes cell results;
// it is compared as canonical JSON.
func Open[K fmt.Stringer, R any](config any, checkpointPath, resumePath string) (*Checkpoint[K, R], error) {
	if checkpointPath == "" && resumePath == "" {
		return nil, nil
	}
	echo, err := json.Marshal(config)
	if err == nil {
		echo, err = canonical(echo)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding config echo: %w", err)
	}
	c := &Checkpoint[K, R]{
		path: checkpointPath,
		f:    file[R]{Schema: Schema, Config: echo, Results: map[string]map[string]R{}},
	}
	if resumePath == "" {
		return c, nil
	}
	if c.path == "" {
		c.path = resumePath
	}
	loaded, err := load[R](resumePath)
	if err != nil {
		return nil, err
	}
	got, err := canonical(loaded.Config)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: config echo: %w", resumePath, err)
	}
	if !bytes.Equal(got, echo) {
		return nil, fmt.Errorf("campaign: %s was taken under config %s, not %s", resumePath, got, echo)
	}
	if loaded.Results != nil {
		c.f.Results = loaded.Results
	}
	return c, nil
}

// load reads and strictly decodes one checkpoint file.
func load[R any](path string) (file[R], error) {
	var f file[R]
	st, err := os.Stat(path)
	if err != nil {
		return f, fmt.Errorf("campaign: %w", err)
	}
	if st.Size() > MaxFileBytes {
		return f, fmt.Errorf("campaign: %s is %d bytes (max %d)", path, st.Size(), MaxFileBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("campaign: %w", err)
	}
	// Check the tag before the strict decode, so a file written in an
	// older or foreign layout is named as such rather than as an
	// unknown field.
	var tag struct {
		Schema string `json:"schema"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&tag); err != nil {
		return f, fmt.Errorf("campaign: decoding %s: %w", path, err)
	}
	if tag.Schema != Schema {
		return f, fmt.Errorf("campaign: %s has schema %q, want %q", path, tag.Schema, Schema)
	}
	if err := httpx.DecodeStrict(data, MaxFileBytes, &f); err != nil {
		return f, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return f, nil
}

// canonical re-encodes a JSON document compactly with sorted object
// keys and numbers kept as written, so two echoes compare byte for byte.
func canonical(raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return nil, errors.New("missing")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree)
}

// Lookup returns the cached result for one cell. It has the shape of
// the campaigns' Resume hooks.
func (c *Checkpoint[K, R]) Lookup(scheme string, k K) (R, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.f.Results[scheme][k.String()]
	return r, ok
}

// Store records one completed cell and, when the checkpoint has a path,
// saves the whole file atomically (resilience.SaveJSON). It has the
// shape of the campaigns' Progress hooks; a save failure is kept for
// Err.
func (c *Checkpoint[K, R]) Store(scheme string, k K, r R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.f.Results[scheme]
	if m == nil {
		m = map[string]R{}
		c.f.Results[scheme] = m
	}
	m[k.String()] = r
	if c.path != "" && c.err == nil {
		if err := resilience.SaveJSON(c.path, &c.f); err != nil {
			c.err = fmt.Errorf("campaign: saving %s: %w", c.path, err)
		}
	}
}

// Cells returns the number of completed cells (0 for a nil checkpoint).
func (c *Checkpoint[K, R]) Cells() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.f.Results {
		n += len(m)
	}
	return n
}

// Err returns the first save failure, if any (nil for a nil checkpoint).
func (c *Checkpoint[K, R]) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Interrupted is the line a command prints when a run stops early: how
// to resume it, or why progress was not saved.
func (c *Checkpoint[K, R]) Interrupted() string {
	if c == nil {
		return "interrupted (no -checkpoint path; progress not saved)"
	}
	if err := c.Err(); err != nil {
		return fmt.Sprintf("interrupted; progress not saved: %v", err)
	}
	return fmt.Sprintf("interrupted with %d cells complete; resume with -resume %s", c.Cells(), c.path)
}
