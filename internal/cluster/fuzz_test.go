package cluster

import (
	"encoding/json"
	"testing"

	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
)

// The fuzz targets lock the wire codec's front door: no frame, however
// malformed, may panic the decoder; any frame that decodes must satisfy
// its own Validate invariants and survive a marshal/decode round trip.
// Run them as plain tests in CI (the corpus seeds double as regression
// cases) or with `go test -fuzz FuzzDecodeLeaseRequest ./internal/cluster`.

func FuzzDecodeLeaseRequest(f *testing.F) {
	f.Add([]byte(`{"worker_id":"w1","max_cells":2}`))
	f.Add([]byte(`{"worker_id":"w1"} trailing`))
	f.Add([]byte(`{"worker_id":"w1","unknown":1}`))
	f.Add([]byte(`{"worker_id":""}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeLeaseRequest(data)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("decoded frame fails its own validation: %v", err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		r2, err := DecodeLeaseRequest(raw)
		if err != nil || r2 != r {
			t.Fatalf("round trip: %+v -> %+v (err %v)", r, r2, err)
		}
	})
}

func FuzzDecodeLeaseResponse(f *testing.F) {
	spec := testSpec()
	grant := LeaseResponse{
		Version: ProtocolVersion,
		Spec:    &spec,
		Leases:  []Lease{{ID: "L1", Cell: Cell{ID: 0, Scheme: "NI:SEC-DED"}, TTLMS: 1000}},
	}
	raw, _ := json.Marshal(grant)
	f.Add(raw)
	f.Add([]byte(`{"version":1,"wait":true,"retry_ms":50}`))
	f.Add([]byte(`{"version":1,"done":true}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"leases":[{"id":"","cell":{"id":0},"ttl_ms":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeLeaseResponse(data)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("decoded frame fails its own validation: %v", err)
		}
		for i := range r.Leases {
			if err := r.Leases[i].Cell.Validate(r.Spec); err != nil {
				t.Fatalf("accepted lease %d carries invalid cell: %v", i, err)
			}
		}
	})
}

func FuzzDecodeCompleteRequest(f *testing.F) {
	good := CompleteRequest{
		WorkerID: "w1",
		LeaseID:  "L1",
		Cell:     Cell{ID: 0, Scheme: "NI:SEC-DED", Pattern: 0},
		Result: evalmc.PatternResult{
			Pattern: errormodel.Bit1, Exhaustive: true, N: 288, DCE: 286, DUE: 1, SDC: 1,
		},
		ElapsedNS: 12345,
	}
	raw, _ := json.Marshal(good)
	f.Add(raw)
	f.Add([]byte(`{"worker_id":"w1","lease_id":"L1","cell":{"id":0},"result":{"n":1,"dce":2}}`))
	f.Add([]byte(`{"worker_id":"w1","lease_id":"L1","cell":{"id":0},"result":{"n":-1}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeCompleteRequest(data)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("decoded frame fails its own validation: %v", err)
		}
		if r.Result.DCE+r.Result.DUE+r.Result.SDC != r.Result.N {
			t.Fatalf("accepted inconsistent counts: %+v", r.Result)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		r2, err := DecodeCompleteRequest(raw)
		if err != nil || r2 != r {
			t.Fatalf("round trip: %+v -> %+v (err %v)", r, r2, err)
		}
	})
}
