package campaign_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/cluster"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/resilience"
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
	save := func(name string, write func(path string) (checkpoint, error)) string {
		t.Helper()
		path := filepath.Join(dir, name)
		ck, err := write(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		if ck.Cells() != 1 {
			t.Fatalf("%s: %d cells after one Store", name, ck.Cells())
		}
		return path
	}

	evalBase := evalmc.Options{Seed: 7, Samples3b: 100, SamplesBeat: 200, SamplesEntry: 300, Shards: 2, OnDie: "hamming64"}
	evalOpen := func(o evalmc.Options) func(string) error {
		return func(path string) error {
			ck, err := evalmc.OpenCheckpoint(o, "", path)
			defer ck.Close()
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
	evalPath := save("eval.json", func(p string) (checkpoint, error) {
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
			ck, err := workload.OpenCheckpoint(o, "", path)
			ck.Close()
			return err
		}
	}
	wlPath := save("workload.json", func(p string) (checkpoint, error) {
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
			ck, err := cluster.OpenCheckpoint(s, "", path)
			ck.Close()
			return err
		}
	}
	clusterSave := func(name, scheme string, p errormodel.Pattern) string {
		return save(name, func(path string) (checkpoint, error) {
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

	// File-level variants of the evalmc checkpoint: its two frames,
	// edited and re-framed.
	good := readFrames(t, evalPath)
	if len(good) != 2 {
		t.Fatalf("evalmc checkpoint holds %d frames, want header + 1 cell", len(good))
	}
	framed := func(name string, payloads ...[]byte) string {
		path := filepath.Join(dir, name)
		writeFrames(t, path, payloads...)
		return path
	}
	edit := func(frame []byte, mut func(map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(frame, &doc); err != nil {
			t.Fatal(err)
		}
		mut(doc)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	hdr, cell := good[0], good[1]
	plain := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A header frame claiming one byte over the bound: never read, so
	// the file has no intact header.
	var big [8]byte
	binary.LittleEndian.PutUint32(big[:], campaign.MaxFrameBytes+1)
	oversize := plain("oversize.ckpt", string(big[:])+string(hdr))
	legacy := plain("legacy.json", `{"seed":7,"samples_3b":100,"samples_beat":200,"samples_entry":300,"shards":2,"ondie":"hamming64","results":{}}`+"\n")
	envelope := plain("envelope.json", `{"schema":"hbm2ecc/cluster_checkpoint/v1","spec":{},"completed":null}`)
	v1 := plain("v1.json", `{"schema":"hbm2ecc/campaign_checkpoint/v1","config":{"ondie":"hamming64","samples_3b":100,"samples_beat":200,"samples_entry":300,"seed":7,"shards":2},"results":{}}`+"\n")
	beamV1 := plain("beamsim.json", `{"seed":2021,"runs":12,"mtte":5,"completed":0,"clock":0,"logs":[]}`+"\n")
	otherBit1 := edit(cell, func(d map[string]any) { d["result"].(map[string]any)["DUE"] = 1 })

	beamBase := experiments.CampaignConfig{Seed: 2021, Runs: 12}
	beamWith := func(mut func(*experiments.CampaignConfig)) func(string) error {
		cfg := beamBase
		mut(&cfg)
		return func(path string) error {
			ck, err := experiments.OpenCheckpoint(cfg, "", path)
			ck.Close()
			return err
		}
	}
	beamPath := save("beam.ckpt", func(p string) (checkpoint, error) {
		ck, err := experiments.OpenCheckpoint(beamBase, p, "")
		if err == nil {
			ck.Store("none", 0, &microbench.Log{EndTime: 1})
		}
		return ck, err
	})

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

		{"beam/self", beamPath, beamWith(func(*experiments.CampaignConfig) {}), ""},
		{"beam/defaults-fill-in", beamPath, beamWith(func(c *experiments.CampaignConfig) { c.MTTE = 5 }), ""},
		{"beam/seed", beamPath, beamWith(func(c *experiments.CampaignConfig) { c.Seed++ }), mismatch},
		{"beam/runs", beamPath, beamWith(func(c *experiments.CampaignConfig) { c.Runs++ }), mismatch},
		{"beam/mtte", beamPath, beamWith(func(c *experiments.CampaignConfig) { c.MTTE = 6 }), mismatch},
		{"beam/evalmc-file", evalPath, beamWith(func(*experiments.CampaignConfig) {}), mismatch},

		{"file/unknown-field", framed("unknown.ckpt", edit(hdr, func(d map[string]any) { d["extra"] = 1 }), cell), evalOpen(evalBase), "unknown field"},
		{"file/unknown-cell-field", framed("unknown-cell.ckpt", hdr, edit(cell, func(d map[string]any) { d["extra"] = 1 })), evalOpen(evalBase), "unknown field"},
		{"file/unknown-result-field", framed("unknown-result.ckpt", hdr, edit(cell, func(d map[string]any) {
			d["result"].(map[string]any)["Bogus"] = 1
		})), evalOpen(evalBase), "unknown field"},
		{"file/missing-config", framed("no-config.ckpt", edit(hdr, func(d map[string]any) { delete(d, "config") }), cell), evalOpen(evalBase), "config echo"},
		{"file/trailing-data", framed("trailing.ckpt", hdr, append(append([]byte(nil), cell...), "{}"...)), evalOpen(evalBase), "trailing data"},
		{"file/not-json", framed("garbage.ckpt", hdr, []byte("not json")), evalOpen(evalBase), "decoding"},
		{"file/header-not-json", framed("garbage-header.ckpt", []byte("not json"), cell), evalOpen(evalBase), "decoding header"},
		{"file/duplicate-same", framed("dup-same.ckpt", hdr, cell, cell), evalOpen(evalBase), ""},
		{"file/duplicate-differs", framed("dup-differs.ckpt", hdr, cell, otherBit1), evalOpen(evalBase), "stored twice"},
		{"file/oversize", oversize, evalOpen(evalBase), campaign.Schema},
		{"file/wrong-schema", framed("schema.ckpt", edit(hdr, func(d map[string]any) { d["schema"] = "hbm2ecc/campaign_checkpoint/v0" }), cell), evalOpen(evalBase), campaign.Schema},
		{"file/v1", v1, evalOpen(evalBase), campaign.Schema},
		{"file/legacy-evalmc", legacy, evalOpen(evalBase), campaign.Schema},
		{"file/legacy-envelope", envelope, specWith(func(*cluster.Spec) {}), campaign.Schema},
		{"file/legacy-beamsim", beamV1, beamWith(func(*experiments.CampaignConfig) {}), campaign.Schema},
		{"file/empty", plain("empty.ckpt", ""), evalOpen(evalBase), campaign.Schema},
		{"file/plain-text", plain("text.ckpt", "not a checkpoint\n"), evalOpen(evalBase), campaign.Schema},
		{"file/missing", filepath.Join(dir, "absent.json"), evalOpen(evalBase), "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, _ := os.ReadFile(tc.path)
			err := tc.resume(tc.path)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Errorf("accepted, want a refusal containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("refused with %q, want it to contain %q", err, tc.want)
			}
			// Opening to resume never rewrites an intact file, and a
			// refused file is left exactly as it was.
			if after, _ := os.ReadFile(tc.path); !bytes.Equal(before, after) {
				t.Errorf("resume attempt changed the file (%d -> %d bytes)", len(before), len(after))
			}
		})
	}
}

// TestCheckpointOpenModes pins Open's path handling: off with neither
// path, a fresh file with -checkpoint, appending to the resumed file
// when -checkpoint is not given, and the resumed cells rewritten to
// -checkpoint when it names another file.
func TestCheckpointOpenModes(t *testing.T) {
	opts := evalmc.Options{Seed: 3}
	ck, err := evalmc.OpenCheckpoint(opts, "", "")
	if ck != nil || err != nil {
		t.Fatalf("no paths: got %v, %v; want nil, nil", ck, err)
	}
	if ck.Cells() != 0 || ck.Err() != nil || ck.Close() != nil || !strings.Contains(ck.Interrupted(), "not saved") {
		t.Fatal("nil checkpoint accessors")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	if ck, err = evalmc.OpenCheckpoint(opts, path, ""); err != nil {
		t.Fatal(err)
	}
	ck.Store("DuetECC", errormodel.Bit1, bit1)
	ck.Close()
	frames := readFrames(t, path)
	if len(frames) != 2 || !bytes.Contains(frames[0], []byte(`"schema":"`+campaign.Schema+`"`)) {
		t.Fatalf("file is not a header frame carrying the schema tag plus one cell: %q", frames)
	}

	// Resume only: the next Store appends to the resumed file.
	if ck, err = evalmc.OpenCheckpoint(opts, "", path); err != nil {
		t.Fatal(err)
	}
	ck.Store("DuetECC", errormodel.Pin1, evalmc.PatternResult{Pattern: errormodel.Pin1, N: 1, DUE: 1})
	ck.Close()
	if ck, err = evalmc.OpenCheckpoint(opts, "", path); err != nil {
		t.Fatal(err)
	}
	if ck.Cells() != 2 || ck.Err() != nil {
		t.Fatalf("resumed file holds %d cells (err %v), want 2", ck.Cells(), ck.Err())
	}
	if msg := ck.Interrupted(); !strings.Contains(msg, "2 cells") || !strings.Contains(msg, path) {
		t.Fatalf("Interrupted() = %q", msg)
	}
	ck.Close()

	// Resume into another file: it starts with the resumed cells, and
	// the resumed file is left alone.
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other")
	if ck, err = evalmc.OpenCheckpoint(opts, other, path); err != nil {
		t.Fatal(err)
	}
	ck.Store("TrioECC", errormodel.Bit1, bit1)
	ck.Close()
	if after, _ := os.ReadFile(path); !bytes.Equal(after, resumed) {
		t.Fatal("storing to -checkpoint changed the -resume file")
	}
	if got := readFrames(t, other); len(got) != 4 {
		t.Fatalf("-checkpoint file holds %d frames, want the resumed 3 plus 1", len(got))
	}

	// A file that cannot be created fails Open; a Store that cannot be
	// saved is kept for Err and named by Interrupted.
	if _, err := evalmc.OpenCheckpoint(opts, filepath.Join(path, "not-a-dir", "ck"), ""); err == nil {
		t.Fatal("checkpoint under a regular file opened")
	}
	if ck, err = evalmc.OpenCheckpoint(opts, path, ""); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck.Store("DuetECC", errormodel.Bit1, bit1)
	if ck.Err() == nil || !strings.Contains(ck.Interrupted(), "not saved") {
		t.Fatalf("save failure not reported: err=%v, %q", ck.Err(), ck.Interrupted())
	}
}

// TestCheckpointStoreAppendsOneFrame pins the cost of a Store: the file
// after n Stores is the file after n-1 Stores plus one frame, so nothing
// already saved is rewritten.
func TestCheckpointStoreAppendsOneFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	ck, err := evalmc.OpenCheckpoint(evalmc.Options{Seed: 3}, path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _ := json.Marshal(map[string]any{
		"schema": campaign.Schema,
		"config": json.RawMessage(`{"ondie":"","samples_3b":200000,"samples_beat":200000,"samples_entry":200000,"seed":3,"shards":0}`),
	})
	if want := 8 + len(hdr); len(prev) != want {
		t.Fatalf("fresh file is %d bytes, want the %d-byte header frame", len(prev), want)
	}
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		r := evalmc.PatternResult{Pattern: p, N: int(p) + 1, DUE: int(p) + 1}
		ck.Store("DuetECC", p, r)
		frame, _ := json.Marshal(map[string]any{"scheme": "DuetECC", "key": p.String(), "result": r})
		cur, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(cur) != len(prev)+8+len(frame) || !bytes.HasPrefix(cur, prev) {
			t.Fatalf("Store %d: file went %d -> %d bytes, want the old file plus one %d-byte frame",
				p, len(prev), len(cur), 8+len(frame))
		}
		prev = cur
	}
	if ck.Err() != nil {
		t.Fatal(ck.Err())
	}
}

// TestCheckpointTornTail drops a damaged final frame — torn mid-write or
// failing its CRC — on resume: the cell is gone, the file is cut back to
// its intact frames, and storing the cell again restores the file byte
// for byte. A torn header leaves no checkpoint to resume.
func TestCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	opts := evalmc.Options{Seed: 3}
	ck, err := evalmc.OpenCheckpoint(opts, path, "")
	if err != nil {
		t.Fatal(err)
	}
	pin1 := evalmc.PatternResult{Pattern: errormodel.Pin1, N: 1, DUE: 1}
	ck.Store("DuetECC", errormodel.Bit1, bit1)
	ck.Store("DuetECC", errormodel.Pin1, pin1)
	ck.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		damage   func([]byte) []byte
		pin1Kept bool
	}{
		{"torn-frame-header", func(b []byte) []byte { return append(b, 1, 0) }, true},
		{"torn-payload", func(b []byte) []byte { return b[:len(b)-3] }, false},
		{"bad-crc", func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.damage(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := evalmc.OpenCheckpoint(opts, "", path)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.Close()
			if _, ok := ck.Lookup("DuetECC", errormodel.Bit1); !ok {
				t.Fatal("intact cell before the damaged tail lost")
			}
			if _, ok := ck.Lookup("DuetECC", errormodel.Pin1); ok != tc.pin1Kept {
				t.Fatalf("final cell kept = %v, want %v", ok, tc.pin1Kept)
			} else if !ok {
				ck.Store("DuetECC", errormodel.Pin1, pin1)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, intact) {
				t.Fatal("resumed file is not the intact file again")
			}
		})
	}

	torn := intact[:5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := evalmc.OpenCheckpoint(opts, "", path); err == nil || !strings.Contains(err.Error(), campaign.Schema) {
		t.Fatalf("torn header: err = %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("refused file was modified")
	}
}

type checkpoint interface {
	Cells() int
	Close() error
}

// readFrames returns the payloads of a checkpoint file's intact frames.
func readFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var frames [][]byte
	if _, _, err := resilience.ScanWAL(f, campaign.MaxFrameBytes, func(rec []byte) error {
		frames = append(frames, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// writeFrames writes payloads to a new file as checkpoint frames.
func writeFrames(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	w, err := resilience.OpenWAL(path, resilience.WALOptions{MaxRecord: campaign.MaxFrameBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
