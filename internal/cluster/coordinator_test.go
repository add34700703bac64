package cluster

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
)

// fakeClock drives the lease state machine deterministically.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }

func newTestCoordinator(t *testing.T, clock *fakeClock, budget int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:          testSpec(),
		LeaseTTL:      time.Second,
		FailureBudget: budget,
		Clock:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// resultFor fabricates a count-consistent result for a cell under the
// test spec (contents don't matter to the state machine, only totals).
func resultFor(c *Coordinator, cell Cell) evalmc.PatternResult {
	n := evalmc.CellTrials(cell.PatternP(), c.Spec().Options())
	return evalmc.PatternResult{
		Pattern:    cell.PatternP(),
		Exhaustive: errormodel.EnumerableCount(cell.PatternP()) >= 0,
		N:          n,
		DCE:        n,
	}
}

func TestLeaseOrderIsLPT(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 0)
	resp := c.Lease(LeaseRequest{WorkerID: "w1", MaxCells: 3})
	if len(resp.Leases) != 3 {
		t.Fatalf("granted %d leases, want 3", len(resp.Leases))
	}
	// Heaviest first: the 2-Bits exhaustive class (39888 trials)
	// dominates the 1000-sample cells for every scheme.
	for i, l := range resp.Leases {
		if l.Cell.PatternP() != errormodel.Bits2 {
			t.Fatalf("lease %d is %s, want 2 Bits (LPT order)", i, l.Cell.PatternP())
		}
	}
	if resp.Spec == nil || !reflect.DeepEqual(*resp.Spec, Spec{
		Schemes: testSpec().Schemes, Seed: 2021,
		Samples3b: 1000, SamplesBeat: 1000, SamplesEntry: 1000, Shards: 1,
	}) {
		t.Fatalf("lease response spec = %+v", resp.Spec)
	}
}

func TestLeaseExpiryRequeuesAndBacksOff(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 3)

	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	if len(resp.Leases) != 1 {
		t.Fatalf("granted %d leases", len(resp.Leases))
	}
	leased := resp.Leases[0]

	// Within TTL nothing happens.
	c.Sweep()
	if st := c.Status(); st.Requeues != 0 {
		t.Fatalf("requeued before expiry: %+v", st)
	}

	// Past TTL the cell re-queues and the worker is backed off.
	clock.Advance(2 * time.Second)
	c.Sweep()
	st := c.Status()
	if st.Requeues != 1 || st.Leased != 0 {
		t.Fatalf("after expiry: %+v", st)
	}
	resp = c.Lease(LeaseRequest{WorkerID: "w1"})
	if !resp.Wait || len(resp.Leases) != 0 {
		t.Fatalf("backed-off worker got %+v", resp)
	}
	// Another worker can take the re-queued cell immediately — and gets
	// the same heaviest cell back.
	resp = c.Lease(LeaseRequest{WorkerID: "w2"})
	if len(resp.Leases) != 1 || resp.Leases[0].Cell != leased.Cell {
		t.Fatalf("w2 lease = %+v, want cell %+v", resp, leased.Cell)
	}
	if resp.Leases[0].ID == leased.ID {
		t.Fatal("re-queued cell re-leased under the same lease id")
	}
}

func TestWorkerEvictionAfterBudget(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 2)

	for i := 0; i < 2; i++ {
		// Exhaust any backoff, lease a cell, let it expire.
		clock.Advance(time.Minute)
		resp := c.Lease(LeaseRequest{WorkerID: "bad"})
		if len(resp.Leases) != 1 {
			t.Fatalf("round %d: lease = %+v", i, resp)
		}
		clock.Advance(2 * time.Second)
		c.Sweep()
	}
	st := c.Status()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (status %+v)", st.Evictions, st)
	}
	clock.Advance(time.Hour)
	resp := c.Lease(LeaseRequest{WorkerID: "bad"})
	if !resp.Evicted {
		t.Fatalf("evicted worker got %+v", resp)
	}
	// Healthy workers are unaffected.
	if resp := c.Lease(LeaseRequest{WorkerID: "good"}); len(resp.Leases) != 1 {
		t.Fatalf("healthy worker got %+v", resp)
	}
}

func TestIdempotentDoubleCompletion(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 0)

	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	lease := resp.Leases[0]
	res := resultFor(c, lease.Cell)

	cr, err := c.Complete(CompleteRequest{
		WorkerID: "w1", LeaseID: lease.ID, Cell: lease.Cell, Result: res, ElapsedNS: 1e6,
	})
	if err != nil || !cr.Accepted || cr.Duplicate || cr.Stale {
		t.Fatalf("first completion: %+v err=%v", cr, err)
	}

	// Identical duplicate: accepted, flagged, no conflict.
	cr, err = c.Complete(CompleteRequest{
		WorkerID: "w2", LeaseID: "stale", Cell: lease.Cell, Result: res, ElapsedNS: 1e6,
	})
	if err != nil || !cr.Accepted || !cr.Duplicate {
		t.Fatalf("identical duplicate: %+v err=%v", cr, err)
	}

	// Disagreeing duplicate: rejected, conflict counted, first kept.
	bad := res
	bad.DCE--
	bad.SDC++
	cr, err = c.Complete(CompleteRequest{
		WorkerID: "w3", LeaseID: "stale2", Cell: lease.Cell, Result: bad, ElapsedNS: 1e6,
	})
	if err != nil || cr.Accepted || !cr.Duplicate {
		t.Fatalf("conflicting duplicate: %+v err=%v", cr, err)
	}
	if st := c.Status(); st.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", st.Conflicts)
	}
}

func TestStaleLeaseResultStillAccepted(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 0)

	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	lease := resp.Leases[0]

	// Expire and re-queue the lease, then let the original worker's
	// late result land: deterministic work is work.
	clock.Advance(2 * time.Second)
	c.Sweep()
	cr, err := c.Complete(CompleteRequest{
		WorkerID: "w1", LeaseID: lease.ID, Cell: lease.Cell,
		Result: resultFor(c, lease.Cell), ElapsedNS: 1e6,
	})
	if err != nil || !cr.Accepted || !cr.Stale {
		t.Fatalf("stale completion: %+v err=%v", cr, err)
	}
	if st := c.Status(); st.Done != 1 {
		t.Fatalf("status after stale completion: %+v", st)
	}
}

func TestCompletionCountValidation(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 0)
	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	lease := resp.Leases[0]
	res := resultFor(c, lease.Cell)
	res.N--
	res.DCE--
	if _, err := c.Complete(CompleteRequest{
		WorkerID: "w1", LeaseID: lease.ID, Cell: lease.Cell, Result: res,
	}); err == nil {
		t.Fatal("short-count completion accepted")
	}
	// The broken worker was charged a failure.
	if st := c.Status(); len(st.Workers) != 1 || st.Workers[0].Failures != 1 {
		t.Fatalf("worker accounting: %+v", st.Workers)
	}
}

func TestPoisonedCellFailsCampaign(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:            testSpec(),
		LeaseTTL:        time.Second,
		MaxCellAttempts: 2,
		FailureBudget:   1000,
		Clock:           clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		clock.Advance(time.Hour) // clear backoff
		resp := c.Lease(LeaseRequest{WorkerID: "crashy"})
		if len(resp.Leases) == 0 {
			t.Fatalf("round %d: no lease: %+v", i, resp)
		}
		clock.Advance(2 * time.Second)
		c.Sweep()
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not closed after poisoned cell")
	}
	if err := c.Err(); err == nil {
		t.Fatal("no campaign failure recorded")
	}
	if _, err := c.Results(); err == nil {
		t.Fatal("Results succeeded on failed campaign")
	}
}

func TestResumeSkipsCompletedCells(t *testing.T) {
	spec := testSpec()
	ckpt, err := OpenCheckpoint(spec, filepath.Join(t.TempDir(), "ckpt.json"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-complete every cell of the first scheme.
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		n := evalmc.CellTrials(p, spec.Options())
		ckpt.Store(spec.Schemes[0], p, evalmc.PatternResult{
			Pattern: p, Exhaustive: errormodel.EnumerableCount(p) >= 0, N: n, DCE: n,
		})
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:   spec,
		Resume: ckpt.Lookup,
		Clock:  clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	np := int(errormodel.NumPatterns)
	if st.Done != np || st.Pending != 2*np {
		t.Fatalf("resumed status: %+v", st)
	}
	// Resumed cells are never leased again.
	resp := c.Lease(LeaseRequest{WorkerID: "w1", MaxCells: MaxLeaseCells})
	for _, l := range resp.Leases {
		if l.Cell.Scheme == spec.Schemes[0] {
			t.Fatalf("resumed cell leased: %+v", l.Cell)
		}
	}
}

// TestDuplicatedLeaseRequestsReissue delivers every lease request twice,
// as a duplicating network does, and the worker runs only the cells of
// the answer it sees (the second). The duplicate must re-issue the
// worker's unexpired leases instead of granting cells nobody runs, so
// the campaign finishes with no requeue and no failure charged.
func TestDuplicatedLeaseRequestsReissue(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 0)
	for i := 0; ; i++ {
		if i > 10*c.Spec().NumCells() {
			t.Fatalf("campaign not done after %d lease rounds: %+v", i, c.Status())
		}
		req := LeaseRequest{WorkerID: "w1", MaxCells: 2}
		first := c.Lease(req)
		seen := c.Lease(req)
		if seen.Done {
			break
		}
		if len(seen.Leases) == 0 {
			// Nothing grantable: let any phantom lease expire.
			clock.Advance(2 * time.Second)
			c.Sweep()
			continue
		}
		byID := func(ls []Lease) []Lease {
			sort.Slice(ls, func(i, j int) bool { return ls[i].ID < ls[j].ID })
			return ls
		}
		if !reflect.DeepEqual(byID(first.Leases), byID(seen.Leases)) {
			t.Errorf("round %d: duplicate request got %+v, first got %+v", i, seen.Leases, first.Leases)
		}
		for _, l := range seen.Leases {
			if _, err := c.Complete(CompleteRequest{
				WorkerID: "w1", LeaseID: l.ID, Cell: l.Cell, Result: resultFor(c, l.Cell),
			}); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(100 * time.Millisecond)
	}
	st := c.Status()
	if st.Requeues != 0 || len(st.Workers) != 1 || st.Workers[0].Failures != 0 {
		t.Fatalf("duplicated lease requests cost requeues or failures: %+v", st)
	}
}

// TestResumeRefusesTamperedCells resumes a coordinator from a checkpoint
// holding results no worker could deliver for the spec; each must be
// refused like a worker's completion with the same values.
func TestResumeRefusesTamperedCells(t *testing.T) {
	spec := testSpec()
	p := errormodel.Bits3
	n := evalmc.CellTrials(p, spec.Options())
	for name, r := range map[string]evalmc.PatternResult{
		"short-N":         {Pattern: p, N: 5, DCE: 5},
		"counts-mismatch": {Pattern: p, N: n, DCE: n - 1},
		"exhaustive-flag": {Pattern: p, Exhaustive: true, N: n, DCE: n},
		"other-pattern":   {Pattern: errormodel.Bit1, N: n, DCE: n},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt")
			ckpt, err := OpenCheckpoint(spec, path, "")
			if err != nil {
				t.Fatal(err)
			}
			ckpt.Store(spec.Schemes[0], p, r)
			ckpt.Close()
			loaded, err := OpenCheckpoint(spec, "", path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if _, err := NewCoordinator(CoordinatorOptions{Spec: spec, Resume: loaded.Lookup}); err == nil {
				t.Fatalf("tampered cell %+v accepted", r)
			}
		})
	}
}
