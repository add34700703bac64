package campaign

import (
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
// panic, and a file it accepts must round-trip — saved back and
// reopened, it holds the same cells.
func FuzzCheckpointOpen(f *testing.F) {
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.json")
	ck, err := Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, valid, "")
	if err != nil {
		f.Fatal(err)
	}
	ck.Store("DuetECC", "1 Bit", fuzzResult{N: 288, Tag: "exhaustive"})
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"schema":"` + Schema + `","config":{"seed":9},"results":null}`))
	f.Add([]byte(`{"seed":9,"results":{}}`))
	f.Add([]byte(`{"schema":"hbm2ecc/cluster_checkpoint/v1","spec":{},"completed":null}`))
	f.Add(append(raw, raw...))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each fuzz worker process runs this function serially, so one
		// pair of files per process suffices.
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, out, in)
		if err != nil {
			return
		}
		cells := c.Cells()
		c.Store("round-trip", "key", fuzzResult{N: 1})
		if err := c.Err(); err != nil {
			t.Fatalf("saving an accepted checkpoint: %v", err)
		}
		again, err := Open[fuzzKey, fuzzResult](fuzzConfig{Seed: 9}, "", out)
		if err != nil {
			t.Fatalf("reopening a saved checkpoint: %v", err)
		}
		if !reflect.DeepEqual(again.f.Results, c.f.Results) {
			t.Fatalf("round trip changed the cells:\n%v\nvs\n%v", again.f.Results, c.f.Results)
		}
		if n := again.Cells(); n < cells || n > cells+1 {
			t.Fatalf("round trip holds %d cells, had %d before one Store", n, cells)
		}
	})
}
