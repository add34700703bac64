package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
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
