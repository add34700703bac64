package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type fuzzKey string

func (k fuzzKey) String() string { return string(k) }

type fuzzResult struct {
	N   int    `json:"n"`
	Tag string `json:"tag"`
}

type fuzzConfig struct {
	Seed int64 `json:"seed"`
}

// FuzzCheckpointOpen feeds arbitrary bytes to the loader: nothing may
// panic; a refused file is left byte-identical; resuming an accepted
// file in place only cuts a damaged tail; and an accepted file
// round-trips — copied to a new checkpoint with one more Store and
// reopened, it holds the same cells.
func FuzzCheckpointOpen(f *testing.F) {
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.ckpt")
	ck, err := Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, valid, "")
	if err != nil {
		f.Fatal(err)
	}
	ck.Store("DuetECC", "1 Bit", fuzzResult{N: 288, Tag: "exhaustive"})
	ck.Store("DuetECC", "1 Pin", fuzzResult{N: 36})
	ck.Close()
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-4])
	f.Add(append(append([]byte(nil), raw...), raw...))
	f.Add([]byte(`{"schema":"hbm2ecc/campaign_checkpoint/v1","config":{"seed":9},"results":null}`))
	f.Add([]byte(`{"seed":9,"results":{}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each fuzz worker process runs this function serially, so one
		// set of files per process suffices.
		in, out := filepath.Join(dir, "in.ckpt"), filepath.Join(dir, "out.ckpt")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, "", in)
		after, rerr := os.ReadFile(in)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused file was modified: %v", err)
			}
			return
		}
		c.Close()
		if !bytes.HasPrefix(data, after) {
			t.Fatal("resuming in place rewrote more than a damaged tail")
		}

		c, err = Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, out, in)
		if err != nil {
			t.Fatalf("reopening an accepted checkpoint: %v", err)
		}
		if _, ok := c.Lookup("round-trip", "key"); !ok {
			c.Store("round-trip", "key", fuzzResult{N: 1})
		}
		if err := c.Err(); err != nil {
			t.Fatalf("saving to a copy of an accepted checkpoint: %v", err)
		}
		c.Close()
		again, err := Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, "", out)
		if err != nil {
			t.Fatalf("reopening a saved checkpoint: %v", err)
		}
		defer again.Close()
		if !reflect.DeepEqual(again.results, c.results) {
			t.Fatalf("round trip changed the cells:\n%v\nvs\n%v", again.results, c.results)
		}
	})
}
