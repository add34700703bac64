// Resilient read path: chaos fault injection, weak-row retirement with
// spare-row remapping, retry-with-backoff for transient faults, and a
// degraded mode after DUE budget exhaustion. This is the mitigation side
// of the paper's §4 weak-cell story — production GPUs survive
// displacement damage exactly because the memory controller retires
// repeat-offender rows instead of letting them error forever.
package gpusim

import (
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/resilience"
)

// ReadFault is a perturbation a FaultInjector applies to one read
// attempt. The zero value is "no fault".
type ReadFault struct {
	// Xor flips wire bits for this attempt only (a transient bus/sense
	// fault); it clears on retry.
	Xor bitvec.V288
	// StuckMask/StuckVal overlay stuck-at bits (persistent until the
	// injector deactivates the fault); bits under StuckMask read as
	// StuckVal.
	StuckMask, StuckVal bitvec.V288
	// Stall adds simulated seconds of access latency.
	Stall float64
	// Dead marks the entry's bank dead: the data bus returns junk no
	// matter what the cells hold (retirement cannot fix it).
	Dead bool
}

// IsZero reports whether the fault perturbs nothing.
func (f ReadFault) IsZero() bool {
	return f.Xor.IsZero() && f.StuckMask.IsZero() && f.Stall == 0 && !f.Dead
}

// FaultInjector perturbs GPU reads; the chaos tests implement it with
// small deterministic injectors. attempt is 0 for the first try of a
// read and increments across retries, letting transient faults clear on
// retry.
type FaultInjector interface {
	BeforeRead(idx int64, t float64, attempt int) ReadFault
}

// ResilienceOptions configures the GPU's graceful-degradation machinery.
type ResilienceOptions struct {
	// Retirement bounds the weak-row retirement table.
	Retirement resilience.RetirementPolicy
	// MaxAttempts / RetryBase / RetryMax parameterize transient-fault
	// retries (defaults: 4 attempts, 1µs..1ms simulated backoff).
	MaxAttempts         int
	RetryBase, RetryMax float64
	// DUEBudget is the number of uncorrectable errors tolerated before
	// the GPU reports itself degraded (default 100).
	DUEBudget int
	// Seed makes retry jitter reproducible.
	Seed int64
}

// EnableResilience arms retirement, retries, and the DUE budget.
func (g *GPU) EnableResilience(opts ResilienceOptions) {
	g.ret = resilience.NewRetirementTable(opts.Retirement)
	g.retry = resilience.NewRetryPolicy(opts.MaxAttempts, opts.RetryBase, opts.RetryMax, opts.Seed)
	g.guard = resilience.NewDegradeGuard(opts.DUEBudget)
}

// AttachInjector points a chaos harness (or any injector) at the GPU.
func (g *GPU) AttachInjector(fi FaultInjector) { g.injector = fi }

// Retirement returns the retirement table, or nil when resilience is off.
func (g *GPU) Retirement() *resilience.RetirementTable { return g.ret }

// Degraded reports whether the DUE budget is exhausted.
func (g *GPU) Degraded() bool { return g.guard != nil && g.guard.Degraded() }

// DUEBudgetSpent returns the DUEs charged against the budget.
func (g *GPU) DUEBudgetSpent() int {
	if g.guard == nil {
		return 0
	}
	return g.guard.Spent()
}

// Read performs one 32B read at the current clock. With ECC enabled the
// entry is decoded (correcting or detecting errors); with ECC disabled
// the raw (possibly corrupted) data is returned with status OK. When
// resilience is enabled, detected-uncorrectable decodes retry with
// exponential backoff (clearing transient injected faults), repeat
// errors retire the row onto a pristine spare, and DUEs that survive
// retries spend the degrade budget.
func (g *GPU) Read(idx int64) ReadResult {
	g.Reads++
	row := g.Dev.Cfg.RowKey(idx)
	attempt := 0
	for {
		var f ReadFault
		if g.injector != nil {
			f = g.injector.BeforeRead(idx, g.clock, attempt)
		}
		if f.Stall > 0 {
			g.clock += f.Stall
			g.Stalls++
		}
		var wire bitvec.V288
		if g.ret != nil && g.ret.Retired(row) {
			// The row is remapped onto a pristine spare: the stored
			// charge is exactly what the pattern wrote.
			wire = g.pristineWire(idx)
		} else {
			wire = g.Dev.ReadWire(idx, g.clock)
		}
		if f.Dead {
			wire = deadWire(idx)
		}
		if !f.StuckMask.IsZero() {
			for i := range wire {
				wire[i] = wire[i]&^f.StuckMask[i] | f.StuckVal[i]&f.StuckMask[i]
			}
		}
		wire = wire.Xor(f.Xor)

		if g.Scheme == nil {
			data, _ := wire.DataECC()
			return ReadResult{Data: data, Status: ecc.OK}
		}
		res := g.Scheme.Decode(wire)
		switch res.Status {
		case ecc.Corrected:
			g.Corrected++
			g.noteRowError(row)
			return ReadResult{Data: res.Data, Status: res.Status}
		case ecc.Detected:
			if g.retry != nil {
				attempt++
				if delay, ok := g.retry.NextDelay(attempt); ok {
					g.Retries++
					g.clock += delay
					continue
				}
			}
			g.DUEs++
			g.noteRowError(row)
			if g.guard != nil {
				g.guard.RecordDUE()
			}
			return ReadResult{Data: res.Data, Status: res.Status}
		default:
			return ReadResult{Data: res.Data, Status: res.Status}
		}
	}
}

// noteRowError feeds the retirement table; when a row crosses the repeat
// threshold it is offlined and its damage swapped out of the address
// space (the physical weak cells are no longer reachable).
func (g *GPU) noteRowError(row int64) {
	if g.ret == nil {
		return
	}
	if g.ret.Record(row) {
		g.Dev.RetireEntries(g.Dev.Cfg.RowEntries(row))
	}
}

// pristineWire rebuilds the fault-free stored image of an entry.
func (g *GPU) pristineWire(idx int64) bitvec.V288 {
	data := g.Dev.Expected(idx)
	if g.Scheme != nil {
		return g.Scheme.Encode(data)
	}
	return bitvec.FromDataECC(data, [4]byte{})
}

// deadWire is what a dead bank's data bus returns: an address-dependent
// junk pattern that no linear code mistakes for a clean word.
func deadWire(idx int64) bitvec.V288 {
	var w bitvec.V288
	x := uint64(idx)*0x9e3779b97f4a7c15 + 0xdeadbeefcafef00d
	for i := range w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w[i] = x
	}
	return w
}
