package campaign_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/cluster"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/workload"
)

var bit1 = evalmc.PatternResult{Pattern: errormodel.Bit1, Exhaustive: true, N: 288, DCE: 288}

// TestCheckpointOpenRejects is the one compatibility table for every
// campaign checkpoint: each caller's echoed fields, the file-level
// strictness of the loader, and the coordinator's in-spec check. A
// case with an empty want must load; every other case must be refused
// with an error containing want.
func TestCheckpointOpenRejects(t *testing.T) {
	dir := t.TempDir()
	// save writes a one-cell checkpoint through write and returns its path.
	save := func(name string, write func(path string) (interface{ Cells() int }, error)) string {
		t.Helper()
		path := filepath.Join(dir, name)
		ck, err := write(path)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Cells() != 1 {
			t.Fatalf("%s: %d cells after one Store", name, ck.Cells())
		}
		return path
	}

	evalBase := evalmc.Options{Seed: 7, Samples3b: 100, SamplesBeat: 200, SamplesEntry: 300, Shards: 2, OnDie: "hamming64"}
	evalOpen := func(o evalmc.Options) func(string) error {
		return func(path string) error {
			ck, err := evalmc.OpenCheckpoint(o, "", path)
			if err == nil {
				if r, ok := ck.Lookup("DuetECC", errormodel.Bit1); !ok || r != bit1 {
					t.Errorf("evalmc cell lost in the round trip: %+v ok=%v", r, ok)
				}
			}
			return err
		}
	}
	evalWith := func(mut func(*evalmc.Options)) func(string) error {
		o := evalBase
		mut(&o)
		return evalOpen(o)
	}
	evalPath := save("eval.json", func(p string) (interface{ Cells() int }, error) {
		ck, err := evalmc.OpenCheckpoint(evalBase, p, "")
		if err == nil {
			ck.Store("DuetECC", errormodel.Bit1, bit1)
		}
		return ck, err
	})

	wlBase := workload.Options{Seed: 5, Runs: 10}
	wlWith := func(mut func(*workload.Options)) func(string) error {
		o := wlBase
		mut(&o)
		return func(path string) error {
			_, err := workload.OpenCheckpoint(o, "", path)
			return err
		}
	}
	wlPath := save("workload.json", func(p string) (interface{ Cells() int }, error) {
		ck, err := workload.OpenCheckpoint(wlBase, p, "")
		if err == nil {
			ck.Store(workload.NoECC, workload.GEMM, workload.CellResult{Scheme: workload.NoECC, Kernel: workload.GEMM, Runs: 10})
		}
		return ck, err
	})

	spec := cluster.Spec{Schemes: []string{"DuetECC", "TrioECC"}, Seed: 2021,
		Samples3b: 1000, SamplesBeat: 1000, SamplesEntry: 1000, Shards: 1}
	specWith := func(mut func(*cluster.Spec)) func(string) error {
		s := spec
		s.Schemes = append([]string(nil), spec.Schemes...)
		mut(&s)
		return func(path string) error {
			_, err := cluster.OpenCheckpoint(s, "", path)
			return err
		}
	}
	clusterSave := func(name, scheme string, p errormodel.Pattern) string {
		return save(name, func(path string) (interface{ Cells() int }, error) {
			ck, err := cluster.OpenCheckpoint(spec, path, "")
			if err == nil {
				ck.Store(scheme, p, bit1)
			}
			return ck, err
		})
	}
	specPath := clusterSave("cluster.json", "DuetECC", errormodel.Bit1)
	offSchemePath := clusterSave("off-scheme.json", "SSC-DSD+", errormodel.Bit1)
	offPatternPath := clusterSave("off-pattern.json", "DuetECC", errormodel.NumPatterns)

	// File-level variants of the evalmc checkpoint.
	raw, err := os.ReadFile(evalPath)
	if err != nil {
		t.Fatal(err)
	}
	variant := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	edit := func(name string, mut func(map[string]any)) string {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		mut(doc)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return variant(name, data)
	}
	oversize := filepath.Join(dir, "oversize.json")
	if err := os.WriteFile(oversize, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(oversize, campaign.MaxFileBytes+1); err != nil {
		t.Fatal(err)
	}
	legacy := variant("legacy.json", []byte(`{"seed":7,"samples_3b":100,"samples_beat":200,"samples_entry":300,"shards":2,"ondie":"hamming64","results":{}}`+"\n"))
	envelope := variant("envelope.json", []byte(`{"schema":"hbm2ecc/cluster_checkpoint/v1","spec":{},"completed":null}`))

	mismatch := "was taken under config"
	cases := []struct {
		name   string
		path   string
		resume func(string) error
		want   string
	}{
		{"evalmc/self", evalPath, evalOpen(evalBase), ""},
		{"evalmc/seed", evalPath, evalWith(func(o *evalmc.Options) { o.Seed++ }), mismatch},
		{"evalmc/samples_3b", evalPath, evalWith(func(o *evalmc.Options) { o.Samples3b++ }), mismatch},
		{"evalmc/samples_beat", evalPath, evalWith(func(o *evalmc.Options) { o.SamplesBeat++ }), mismatch},
		{"evalmc/samples_entry", evalPath, evalWith(func(o *evalmc.Options) { o.SamplesEntry++ }), mismatch},
		{"evalmc/shards", evalPath, evalWith(func(o *evalmc.Options) { o.Shards = 0 }), mismatch},
		{"evalmc/ondie-raw", evalPath, evalWith(func(o *evalmc.Options) { o.OnDie = "" }), mismatch},
		{"evalmc/ondie-cross-stage", evalPath, evalWith(func(o *evalmc.Options) { o.OnDie = "sec128" }), mismatch},
		{"evalmc/defaults-fill-in", evalPath, evalOpen(evalmc.Options{Seed: 7, Samples3b: 100, SamplesBeat: 200,
			SamplesEntry: 300, Shards: 2, OnDie: "hamming64", Parallel: true}), ""},

		{"workload/self", wlPath, wlWith(func(*workload.Options) {}), ""},
		{"workload/seed", wlPath, wlWith(func(o *workload.Options) { o.Seed++ }), mismatch},
		{"workload/runs", wlPath, wlWith(func(o *workload.Options) { o.Runs++ }), mismatch},
		{"workload/source_fit", wlPath, wlWith(func(o *workload.Options) {
			o.SourceFIT = [faults.NumSources]float64{faults.SourceDRAM: 1}
		}), mismatch},
		{"workload/profiles", wlPath, wlWith(func(o *workload.Options) {
			o.Profiles = faults.DefaultProfiles
			o.Profiles[faults.SourceDRAM+1].PCrash += 0.01
			o.Profiles[faults.SourceDRAM+1].PSilent -= 0.01
		}), mismatch},

		{"cluster/self", specPath, specWith(func(*cluster.Spec) {}), ""},
		{"cluster/schemes", specPath, specWith(func(s *cluster.Spec) { s.Schemes[1] = "SSC-DSD+" }), mismatch},
		{"cluster/scheme-order", specPath, specWith(func(s *cluster.Spec) { s.Schemes[0], s.Schemes[1] = s.Schemes[1], s.Schemes[0] }), mismatch},
		{"cluster/seed", specPath, specWith(func(s *cluster.Spec) { s.Seed++ }), mismatch},
		{"cluster/samples", specPath, specWith(func(s *cluster.Spec) { s.SamplesBeat++ }), mismatch},
		{"cluster/shards", specPath, specWith(func(s *cluster.Spec) { s.Shards = 2 }), mismatch},
		{"cluster/data", specPath, specWith(func(s *cluster.Spec) { s.Data = make([]byte, 32) }), mismatch},
		{"cluster/no-schemes", specPath, specWith(func(s *cluster.Spec) { s.Schemes = nil }), mismatch},
		{"cluster/scheme-outside-spec", offSchemePath, specWith(func(*cluster.Spec) {}), "outside the campaign spec"},
		{"cluster/pattern-outside-spec", offPatternPath, specWith(func(*cluster.Spec) {}), "outside the campaign spec"},
		{"cluster/evalmc-file", evalPath, specWith(func(*cluster.Spec) {}), mismatch},

		{"file/unknown-field", edit("unknown.json", func(d map[string]any) { d["extra"] = 1 }), evalOpen(evalBase), "unknown field"},
		{"file/unknown-result-field", edit("unknown-result.json", func(d map[string]any) {
			d["results"].(map[string]any)["DuetECC"].(map[string]any)["1 Bit"].(map[string]any)["Bogus"] = 1
		}), evalOpen(evalBase), "unknown field"},
		{"file/missing-config", edit("no-config.json", func(d map[string]any) { delete(d, "config") }), evalOpen(evalBase), "config echo"},
		{"file/trailing-data", variant("trailing.json", append(append([]byte(nil), raw...), "{}"...)), evalOpen(evalBase), "trailing data"},
		{"file/not-json", variant("garbage.json", []byte("not json")), evalOpen(evalBase), "decoding"},
		{"file/oversize", oversize, evalOpen(evalBase), "bytes (max"},
		{"file/wrong-schema", edit("schema.json", func(d map[string]any) { d["schema"] = "hbm2ecc/campaign_checkpoint/v0" }), evalOpen(evalBase), campaign.Schema},
		{"file/legacy-evalmc", legacy, evalOpen(evalBase), campaign.Schema},
		{"file/legacy-envelope", envelope, specWith(func(*cluster.Spec) {}), campaign.Schema},
		{"file/missing", filepath.Join(dir, "absent.json"), evalOpen(evalBase), "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.resume(tc.path)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Errorf("accepted, want a refusal containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("refused with %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointOpenModes pins Open's path handling: off with neither
// path, a fresh file with -checkpoint, and saving back to the resumed
// file when -checkpoint is not given.
func TestCheckpointOpenModes(t *testing.T) {
	opts := evalmc.Options{Seed: 3}
	ck, err := evalmc.OpenCheckpoint(opts, "", "")
	if ck != nil || err != nil {
		t.Fatalf("no paths: got %v, %v; want nil, nil", ck, err)
	}
	if ck.Cells() != 0 || ck.Err() != nil || !strings.Contains(ck.Interrupted(), "not saved") {
		t.Fatal("nil checkpoint accessors")
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	if ck, err = evalmc.OpenCheckpoint(opts, path, ""); err != nil {
		t.Fatal(err)
	}
	ck.Store("DuetECC", errormodel.Bit1, bit1)
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first, []byte(`"schema":"`+campaign.Schema+`"`)) {
		t.Fatalf("file does not carry the schema tag:\n%s", first)
	}

	// Resume only: the next Store writes back to the resumed file.
	if ck, err = evalmc.OpenCheckpoint(opts, "", path); err != nil {
		t.Fatal(err)
	}
	ck.Store("DuetECC", errormodel.Pin1, evalmc.PatternResult{Pattern: errormodel.Pin1, N: 1, DUE: 1})
	if ck, err = evalmc.OpenCheckpoint(opts, "", path); err != nil {
		t.Fatal(err)
	}
	if ck.Cells() != 2 || ck.Err() != nil {
		t.Fatalf("resumed file holds %d cells (err %v), want 2", ck.Cells(), ck.Err())
	}
	if msg := ck.Interrupted(); !strings.Contains(msg, "2 cells") || !strings.Contains(msg, path) {
		t.Fatalf("Interrupted() = %q", msg)
	}

	// A save failure is kept for Err and named by Interrupted.
	if ck, err = evalmc.OpenCheckpoint(opts, filepath.Join(path, "not-a-dir", "ck.json"), ""); err != nil {
		t.Fatal(err)
	}
	ck.Store("DuetECC", errormodel.Bit1, bit1)
	if ck.Err() == nil || !strings.Contains(ck.Interrupted(), "not saved") {
		t.Fatalf("save failure not reported: err=%v, %q", ck.Err(), ck.Interrupted())
	}
}
