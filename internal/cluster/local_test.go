package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"hbm2ecc/internal/evalmc"
)

// TestLocalWaitReturnsWhenEveryWorkerIsEvicted: once the only embedded
// worker is evicted, nothing is left to finish the campaign, so Wait
// must return the eviction instead of blocking until the caller's
// deadline (forever under a signal-only context).
func TestLocalWaitReturnsWhenEveryWorkerIsEvicted(t *testing.T) {
	spec := Spec{Schemes: []string{"DuetECC"}, Seed: 2021,
		Samples3b: 400_000, SamplesBeat: 400_000, SamplesEntry: 400_000, Shards: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// A 2ms lease expires long before the 400k-trial cell finishes, and
	// a budget of one failure evicts the worker on that first expiry.
	_, coord, err := RunLocal(ctx, CoordinatorOptions{
		Spec: spec, LeaseTTL: 2 * time.Millisecond, FailureBudget: 1,
	}, 1, WorkerOptions{})
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("RunLocal err = %v, want ErrEvicted", err)
	}
	if ctx.Err() != nil {
		t.Fatal("Wait returned only at the caller's deadline")
	}
	if st := coord.Status(); st.Evictions != 1 || st.Campaign != "running" {
		t.Fatalf("status after eviction: %+v", st)
	}
}

// TestLocalCoordinatorOnlyWithJoiningWorker is campaignd's topology: a
// coordinator with no embedded workers waits for a worker that joins by
// URL, merges its cells to the sequential result, and serves the shared
// daemon surface (/spans, the campaignd identity series) on the way.
func TestLocalCoordinatorOnlyWithJoiningWorker(t *testing.T) {
	spec := testSpec()
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	l, err := StartLocal(ctx, "127.0.0.1:0", CoordinatorOptions{Spec: spec}, 0, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/spans": "", "/metrics": "campaignd_build_info"} {
		resp, err := http.Get(l.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: HTTP %d, body %.200q; want 200 containing %q", path, resp.StatusCode, body, want)
		}
	}

	w, err := NewWorker(WorkerOptions{ID: "joiner", BaseURL: l.URL(), PollMax: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() { joined <- w.Run(ctx) }()
	got, err := l.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatalf("joining worker: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator-only campaign differs from sequential evaluation:\n got %+v\nwant %+v", got, want)
	}
	if w.Completed() != spec.NumCells() {
		t.Fatalf("joining worker completed %d of %d cells", w.Completed(), spec.NumCells())
	}
}
