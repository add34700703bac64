package cluster

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
)

func testSpec() Spec {
	return Spec{
		Schemes:      []string{"NI:SEC-DED", "DuetECC", "TrioECC"},
		Seed:         2021,
		Samples3b:    1000,
		SamplesBeat:  1000,
		SamplesEntry: 1000,
		Shards:       1,
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no schemes", func(s *Spec) { s.Schemes = nil }},
		{"unknown scheme", func(s *Spec) { s.Schemes = []string{"NOPE"} }},
		{"duplicate scheme", func(s *Spec) { s.Schemes = []string{"DuetECC", "DuetECC"} }},
		{"zero samples", func(s *Spec) { s.Samples3b = 0 }},
		{"oversized samples", func(s *Spec) { s.SamplesBeat = MaxSamples + 1 }},
		{"zero shards", func(s *Spec) { s.Shards = 0 }},
		{"oversized shards", func(s *Spec) { s.Shards = MaxShards + 1 }},
		{"short data", func(s *Spec) { s.Data = []byte{1, 2, 3} }},
		{"too many schemes", func(s *Spec) {
			s.Schemes = nil
			for i := 0; i <= MaxSchemes; i++ {
				s.Schemes = append(s.Schemes, "DuetECC")
			}
		}},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
}

func TestSpecCellGrid(t *testing.T) {
	s := testSpec()
	np := int(errormodel.NumPatterns)
	if got, want := s.NumCells(), 3*np; got != want {
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	for id := 0; id < s.NumCells(); id++ {
		c, err := s.Cell(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != id || c.Scheme != s.Schemes[id/np] || c.Pattern != id%np {
			t.Fatalf("cell %d = %+v", id, c)
		}
		if err := c.Validate(&s); err != nil {
			t.Fatalf("cell %d: %v", id, err)
		}
	}
	if _, err := s.Cell(-1); err == nil {
		t.Error("negative cell id accepted")
	}
	if _, err := s.Cell(s.NumCells()); err == nil {
		t.Error("out-of-range cell id accepted")
	}
}

func TestDecodeStrictness(t *testing.T) {
	valid, err := json.Marshal(LeaseRequest{WorkerID: "w1", MaxCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLeaseRequest(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	bad := [][]byte{
		[]byte(``),
		[]byte(`{`),
		[]byte(`[]`),
		[]byte(`{"worker_id":"w1"} garbage`),
		[]byte(`{"worker_id":"w1","unknown_field":1}`),
		[]byte(`{"worker_id":""}`),
		[]byte(`{"worker_id":"` + strings.Repeat("x", MaxWorkerID+1) + `"}`),
		[]byte(`{"worker_id":"has space"}`),
		[]byte(`{"worker_id":"w1","max_cells":-1}`),
		[]byte(`{"worker_id":"w1","max_cells":1000}`),
	}
	for _, b := range bad {
		if _, err := DecodeLeaseRequest(b); err == nil {
			t.Errorf("malformed frame accepted: %q", b)
		}
	}
}

func TestDecodeCompleteRequestValidation(t *testing.T) {
	good := CompleteRequest{
		WorkerID: "w1",
		LeaseID:  "L1",
		Cell:     Cell{ID: 0, Scheme: "NI:SEC-DED", Pattern: 0},
		Result: evalmc.PatternResult{
			Pattern: errormodel.Bit1, Exhaustive: true, N: 288, DCE: 288,
		},
	}
	raw, _ := json.Marshal(good)
	if _, err := DecodeCompleteRequest(raw); err != nil {
		t.Fatalf("valid completion rejected: %v", err)
	}
	mutations := []func(*CompleteRequest){
		func(r *CompleteRequest) { r.WorkerID = "" },
		func(r *CompleteRequest) { r.LeaseID = "" },
		func(r *CompleteRequest) { r.Cell.Pattern = 99 },
		func(r *CompleteRequest) { r.Result.Pattern = errormodel.Pin1 }, // mismatch
		func(r *CompleteRequest) { r.Result.DCE = 287 },                 // counts != N
		func(r *CompleteRequest) { r.Result.N = -1 },
		func(r *CompleteRequest) { r.Result.SDC = -1 },
		func(r *CompleteRequest) { r.ElapsedNS = -5 },
	}
	for i, mut := range mutations {
		r := good
		mut(&r)
		raw, _ := json.Marshal(r)
		if _, err := DecodeCompleteRequest(raw); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestEnvelopeRoundTrip pins the coordinator checkpoint: completed
// cells survive a save/load, and a file taken under another spec or
// holding a scheme outside the spec is refused.
func TestEnvelopeRoundTrip(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	ckpt, err := OpenCheckpoint(spec, path, "")
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Store("DuetECC", errormodel.Bit1, evalmc.PatternResult{
		Pattern: errormodel.Bit1, Exhaustive: true, N: 288, DCE: 288,
	})
	if err := ckpt.Err(); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCheckpoint(spec, "", path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := loaded.Lookup("DuetECC", errormodel.Bit1)
	if !ok || r.N != 288 {
		t.Fatalf("completed cell lost: %+v ok=%v", r, ok)
	}

	// A checkpoint from different options must be refused.
	other := testSpec()
	other.Seed++
	if _, err := OpenCheckpoint(other, "", path); err == nil {
		t.Fatal("checkpoint with mismatched spec accepted")
	}

	// Unknown schemes in the completed cells must be refused.
	offPath := filepath.Join(dir, "off-scheme.json")
	off, err := OpenCheckpoint(spec, offPath, "")
	if err != nil {
		t.Fatal(err)
	}
	off.Store("SSC-DSD+", errormodel.Bit1, r)
	if _, err := OpenCheckpoint(spec, "", offPath); err == nil {
		t.Fatal("checkpoint covering out-of-spec scheme accepted")
	}
}

func TestSchemeRegistryRoundTrip(t *testing.T) {
	for _, name := range core.SchemeNames() {
		s, err := core.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("SchemeByName(%q).Name() = %q", name, s.Name())
		}
	}
	if len(core.Table2Names()) != 9 {
		t.Fatalf("Table2Names = %v", core.Table2Names())
	}
	if _, err := core.SchemeByName("bogus"); err == nil {
		t.Error("unknown scheme name accepted")
	}
}
