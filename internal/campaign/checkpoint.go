// Package campaign holds the one checkpoint every resumable campaign
// shares: the beam campaign (Figs. 4/5, Table 1), the evalmc
// Monte-Carlo evaluation (Table 2, Fig. 8), the workload outcome engine
// and the distributed cluster coordinator.
//
// A campaign is a grid of (scheme, key) cells whose results are
// deterministic, so completed cells can be restored and a resumed
// campaign is bit-identical to an uninterrupted one. The checkpoint
// file is a resilience.WAL log: frame 0 holds the schema tag and the
// caller's config echo, and every later frame one completed cell, so a
// Store costs that cell, not the whole campaign.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"

	"hbm2ecc/internal/httpx"
	"hbm2ecc/internal/resilience"
)

// Schema tags every checkpoint file's header frame; files without it
// (or with another tag) are refused.
const Schema = "hbm2ecc/campaign_checkpoint/v2"

// MaxFrameBytes bounds one frame: the header or one cell.
const MaxFrameBytes = 64 << 20

// header is frame 0 of every checkpoint file.
type header struct {
	Schema string          `json:"schema"`
	Config json.RawMessage `json:"config"`
}

// cell is every later frame: one completed cell.
type cell[R any] struct {
	Scheme string `json:"scheme"`
	Key    string `json:"key"`
	Result R      `json:"result"`
}

// Checkpoint accumulates the completed cells of one campaign and
// appends each one to its file as it is stored. Lookup and Store are
// safe for concurrent use.
type Checkpoint[K fmt.Stringer, R any] struct {
	path string

	mu      sync.Mutex
	w       *resilience.WAL
	results map[[2]string]R // (scheme, K.String()) → result
	err     error           // first save failure
}

// Open wires a campaign's -checkpoint/-resume pair. With resumePath it
// loads that file strictly and appends to it, or, when checkpointPath
// names another file, rewrites the loaded cells there and appends to
// that. With only checkpointPath it starts a file holding just the
// header. With neither it returns nil: checkpointing is off.
//
// The load only reads the file. It refuses a file without an intact
// header frame (empty, plain text, or an older JSON checkpoint), a
// wrong schema, a config echo that differs from config as canonical
// JSON, an intact frame that does not decode strictly, and a cell
// stored twice with different results. A torn or CRC-failing tail — a
// crash mid-append — is dropped (those cells are recomputed) and, when
// appending to the resumed file, cut off by resilience.OpenWAL.
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
	c := &Checkpoint[K, R]{path: checkpointPath, results: map[[2]string]R{}}
	if resumePath != "" {
		if err := c.load(resumePath, echo); err != nil {
			return nil, err
		}
		if c.path == "" {
			c.path = resumePath
		}
	}
	fresh := c.path != resumePath
	if fresh {
		err = os.WriteFile(c.path, nil, 0o644)
	}
	if err == nil {
		c.w, err = resilience.OpenWAL(c.path, resilience.WALOptions{MaxRecord: MaxFrameBytes}, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if fresh {
		err = c.append(header{Schema: Schema, Config: echo})
		for key, r := range c.results {
			if err == nil {
				err = c.append(cell[R]{key[0], key[1], r})
			}
		}
	}
	if err != nil {
		c.w.Close()
		return nil, fmt.Errorf("campaign: starting %s: %w", c.path, err)
	}
	return c, nil
}

// load reads path: frame 0 must be a header carrying Schema and echo,
// and every later intact frame a cell that decodes strictly.
func (c *Checkpoint[K, R]) load(path string, echo []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	frames, _, err := resilience.ScanWAL(f, MaxFrameBytes, func(rec []byte) error {
		if echo != nil {
			err := checkHeader(rec, echo)
			echo = nil
			return err
		}
		var fr cell[R]
		if err := httpx.DecodeStrict(rec, MaxFrameBytes, &fr); err != nil {
			return err
		}
		key := [2]string{fr.Scheme, fr.Key}
		if old, ok := c.results[key]; ok && !reflect.DeepEqual(old, fr.Result) {
			return fmt.Errorf("cell %s/%s stored twice with different results", fr.Scheme, fr.Key)
		}
		c.results[key] = fr.Result
		return nil
	})
	switch {
	case err != nil:
		return fmt.Errorf("campaign: %s frame %d: %w", path, frames, err)
	case frames == 0:
		return fmt.Errorf("campaign: %s is not a %s file (no intact header frame)", path, Schema)
	}
	return nil
}

// checkHeader validates frame 0 against the resuming run's echo. The tag
// is checked before the strict decode, so a file written in another
// layout is named as such rather than as an unknown field.
func checkHeader(rec, echo []byte) error {
	var h header
	if err := json.NewDecoder(bytes.NewReader(rec)).Decode(&h); err != nil {
		return fmt.Errorf("decoding header: %w", err)
	}
	if h.Schema != Schema {
		return fmt.Errorf("has schema %q, want %q", h.Schema, Schema)
	}
	if err := httpx.DecodeStrict(rec, MaxFrameBytes, &h); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	got, err := canonical(h.Config)
	if err != nil {
		return fmt.Errorf("config echo: %w", err)
	}
	if !bytes.Equal(got, echo) {
		return fmt.Errorf("was taken under config %s, not %s", got, echo)
	}
	return nil
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

// append writes v as one frame and fsyncs it.
func (c *Checkpoint[K, R]) append(v any) error {
	rec, err := json.Marshal(v)
	switch {
	case err != nil:
		return err
	case c.w == nil:
		return errors.New("checkpoint is closed")
	}
	if err := c.w.Append(rec); err != nil {
		return err
	}
	return c.w.Sync()
}

// Lookup returns the cached result for one cell. It has the shape of
// the campaigns' Resume hooks.
func (c *Checkpoint[K, R]) Lookup(scheme string, k K) (R, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.results[[2]string{scheme, k.String()}]
	return r, ok
}

// Store records one completed cell and appends it to the file, fsynced
// before Store returns. It has the shape of the campaigns' Progress
// hooks; a save failure is kept for Err and stops further appends.
func (c *Checkpoint[K, R]) Store(scheme string, k K, r R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[[2]string{scheme, k.String()}] = r
	if c.err == nil {
		if err := c.append(cell[R]{scheme, k.String(), r}); err != nil {
			c.err = fmt.Errorf("campaign: saving %s: %w", c.path, err)
		}
	}
}

// Close closes the checkpoint file; nil and closed checkpoints are
// no-ops.
func (c *Checkpoint[K, R]) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return nil
	}
	err := c.w.Close()
	c.w = nil
	return err
}

// Cells returns the number of completed cells (0 for a nil checkpoint).
func (c *Checkpoint[K, R]) Cells() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
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
