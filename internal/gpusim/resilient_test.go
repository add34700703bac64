package gpusim

import (
	"testing"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/resilience"
)

func ffPattern(int64) [hbm2.EntryBytes]byte {
	var d [hbm2.EntryBytes]byte
	for i := range d {
		d[i] = 0xFF
	}
	return d
}

// plantWeakRow plants a weak-cell storm on one row directly.
func plantWeakRow(g *GPU, anchor int64, cells int) []int64 {
	cfg := g.Dev.Cfg
	entries := cfg.RowEntries(anchor)
	out := make([]int64, 0, cells)
	for i := 0; i < cells; i++ {
		idx := entries[i%len(entries)]
		g.Dev.AddWeakCell(idx, dram.WeakCell{Bit: (i % 4) * 72, Retention: 0.001, LeakTo: 0})
		out = append(out, idx)
	}
	return out
}

func TestRetirementThresholdBehaviour(t *testing.T) {
	g := New(hbm2.V100(), core.NewSECDED(false, false))
	g.EnableResilience(ResilienceOptions{
		Retirement: resilience.RetirementPolicy{ErrorThreshold: 3, SpareRows: 8},
	})
	anchor := int64(4096)
	entries := plantWeakRow(g, anchor, 4)
	g.WritePattern(ffPattern)
	g.Advance(0.01) // past the 1ms retention, within the refresh period

	row := g.Dev.Cfg.RowKey(anchor)
	// Two corrected errors: below threshold, not retired.
	for i := 0; i < 2; i++ {
		res := g.Read(entries[i])
		if res.Status != ecc.Corrected {
			t.Fatalf("read %d: status %v, want Corrected", i, res.Status)
		}
	}
	if g.Retirement().Retired(row) {
		t.Fatal("row retired below threshold")
	}
	// Third error crosses the threshold.
	if res := g.Read(entries[2]); res.Status != ecc.Corrected {
		t.Fatalf("status %v, want Corrected", res.Status)
	}
	if !g.Retirement().Retired(row) {
		t.Fatal("row not retired at threshold")
	}
	// Retired row reads are pristine: correct data, no decode errors,
	// and the physical weak cells are swapped out of the address space.
	for _, idx := range entries {
		res := g.Read(idx)
		if res.Status != ecc.OK {
			t.Fatalf("retired row read status %v, want OK", res.Status)
		}
		if res.Data != g.Dev.Expected(idx) {
			t.Fatal("retired row returned wrong data")
		}
	}
	if g.Dev.WeakCellCount() != 0 {
		t.Fatalf("weak cells survived retirement: %d", g.Dev.WeakCellCount())
	}
}

// flipInjector injects a 2-bit in-beat transient on the first attempt of
// every read; retries see a clean bus.
type flipInjector struct{ fired int }

func (fi *flipInjector) BeforeRead(idx int64, t float64, attempt int) ReadFault {
	var f ReadFault
	if attempt == 0 {
		fi.fired++
		f.Xor = f.Xor.SetBit(5, 1).SetBit(6, 1)
	}
	return f
}

func TestTransientRetrySucceeds(t *testing.T) {
	g := New(hbm2.V100(), core.NewSECDED(false, false))
	g.EnableResilience(ResilienceOptions{Seed: 9})
	fi := &flipInjector{}
	g.AttachInjector(fi)
	g.WritePattern(ffPattern)
	clock := g.Clock()
	res := g.Read(1234)
	if res.Status != ecc.OK {
		t.Fatalf("status %v, want OK after retry", res.Status)
	}
	if g.Retries != 1 {
		t.Fatalf("retries = %d, want 1", g.Retries)
	}
	if g.Clock() <= clock {
		t.Fatal("backoff did not advance the clock")
	}
	if g.DUEs != 0 {
		t.Fatalf("DUEs = %d, want 0", g.DUEs)
	}
}

// deadInjector marks every read dead (unrecoverable junk).
type deadInjector struct{}

func (deadInjector) BeforeRead(int64, float64, int) ReadFault { return ReadFault{Dead: true} }

func TestDegradedModeAfterDUEBudget(t *testing.T) {
	g := New(hbm2.V100(), core.NewSECDED(false, false))
	g.EnableResilience(ResilienceOptions{DUEBudget: 5, MaxAttempts: 2, Seed: 3})
	g.AttachInjector(deadInjector{})
	g.WritePattern(ffPattern)
	for i := 0; i < 5; i++ {
		if g.Degraded() {
			t.Fatalf("degraded after %d DUEs, budget is 5", i)
		}
		res := g.Read(int64(i))
		if res.Status != ecc.Detected {
			t.Fatalf("dead bank read status %v, want Detected", res.Status)
		}
	}
	if !g.Degraded() {
		t.Fatal("not degraded after budget exhaustion")
	}
	if g.DUEBudgetSpent() != 5 {
		t.Fatalf("budget spent = %d, want 5", g.DUEBudgetSpent())
	}
}

// TestChaosResilienceMetrics drives enough faults through the resilient
// read path that the acceptance-criteria counters are provably nonzero
// in the process-wide /metrics registry.
func TestChaosResilienceMetrics(t *testing.T) {
	before := counterValues(t)
	g := New(hbm2.V100(), core.NewSECDED(false, false))
	g.EnableResilience(ResilienceOptions{
		Retirement: resilience.RetirementPolicy{ErrorThreshold: 2, SpareRows: 16},
		Seed:       11,
	})
	fi := &flipInjector{}
	g.AttachInjector(fi)
	entries := plantWeakRow(g, 8192, 8)
	g.WritePattern(ffPattern)
	g.Advance(0.01)
	for _, idx := range entries {
		g.Read(idx)
	}
	after := counterValues(t)
	if d := after["resilience_rows_retired_total"] - before["resilience_rows_retired_total"]; d < 1 {
		t.Fatalf("resilience_rows_retired_total delta = %v, want >= 1", d)
	}
	if d := after["resilience_retries_total"] - before["resilience_retries_total"]; d < 1 {
		t.Fatalf("resilience_retries_total delta = %v, want >= 1", d)
	}
	if g.Retirement().RetiredCount() < 1 {
		t.Fatal("no rows retired")
	}
}

func counterValues(t *testing.T) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, f := range obs.Default.Snapshot().Families {
		total := 0.0
		for _, s := range f.Series {
			total += s.Value
		}
		out[f.Name] = total
	}
	return out
}
