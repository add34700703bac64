package main

import (
	"math"
	"math/rand"
	"time"

	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/workload"
)

// outcomeRuns is the fault-injection runs per (scheme, kernel) cell in
// the timed body: enough that the per-cell dry run is a small share.
const outcomeRuns = 24

type outcomeWL struct{}

func (w *outcomeWL) close() {}

// setup builds the scheme tables and runs every cell once with two runs,
// which also exercises each kernel's golden dry run.
func (w *outcomeWL) setup(bool) error {
	_, err := workload.Campaign(workload.Options{Seed: 1, Runs: 2})
	return err
}

// body runs whole parallel campaigns over the default grid until d has
// passed. work_per_s is the median per-campaign rate in runs per CPU
// second; the unit cost is a whole campaign's CPU time.
func (w *outcomeWL) body(seed int64, d time.Duration, rec *recorder, layer map[string]float64) *bodyResult {
	res := &bodyResult{}
	var simulated, runs float64
	var perRep []float64
	kernelOps := map[workload.Kernel][2]float64{}
	start := time.Now()
	for rep := 0; time.Since(start) < d; rep++ {
		c0 := cpuSeconds()
		sp := rec.begin("workload.campaign")
		cells, err := workload.Campaign(workload.Options{
			Seed:     mixSeed(seed, 0, rep),
			Runs:     outcomeRuns,
			Parallel: true,
		})
		rec.end(sp)
		cpu := cpuSeconds() - c0
		res.lat = append(res.lat, cpu*1000)
		if err != nil {
			res.problem("campaign: %v", err)
			res.failed++
			res.attempted++
			break
		}
		repRuns := 0
		for _, c := range cells {
			res.attempted += int64(c.Runs)
			if msg := checkCell(c); msg != "" {
				res.problem("%s/%s: %s", c.Scheme, c.Kernel, msg)
				res.failed += int64(c.Runs)
			}
			repRuns += c.Runs
			simulated += float64(simulatedRuns(c))
			ko := kernelOps[c.Kernel]
			kernelOps[c.Kernel] = [2]float64{ko[0] + float64(c.TotalOps), ko[1] + 1}
		}
		if len(cells) != len(workload.DefaultSchemes())*len(workload.Kernels()) {
			res.problem("campaign returned %d cells", len(cells))
			res.failed++
		}
		runs += float64(repRuns)
		perRep = append(perRep, float64(repRuns)/cpu)
		if rec == nil {
			res.sampleHeap(cells)
		}
	}
	res.work = runs
	res.workPerS = quantile(perRep, 0.5)
	if rec != nil && runs > 0 {
		for _, k := range workload.Kernels() {
			if ko := kernelOps[k]; ko[1] > 0 {
				layer["workload.ops_per_run."+k.String()] = ko[0] / ko[1]
			}
		}
		layer["workload.simulated_run_frac"] = simulated / runs
	}
	return res
}

// checkCell is the independent oracle on one cell: its run count is the
// requested one, the ledger agrees with the counts, and the outcome
// fractions sum to 1.
func checkCell(c workload.CellResult) string {
	if c.Runs != outcomeRuns || len(c.Ledger) != c.Runs {
		return "run count differs from the request"
	}
	var fromLedger [workload.NumOutcomes]int
	for _, o := range c.Ledger {
		if !o.Valid() {
			return "invalid outcome in ledger"
		}
		fromLedger[o]++
	}
	frac := 0.0
	for o := workload.Outcome(0); o < workload.NumOutcomes; o++ {
		bySrc := 0
		for s := faults.Source(0); s < faults.NumSources; s++ {
			bySrc += c.BySource[s][o]
		}
		if fromLedger[o] != c.Outcomes[o] || bySrc != c.Outcomes[o] {
			return "ledger, outcome and per-source counts disagree"
		}
		frac += c.Frac(o)
	}
	if math.Abs(frac-1) > 1e-9 {
		return "outcome fractions do not sum to 1"
	}
	return ""
}

// simulatedRuns counts the runs that executed a kernel: every DRAM run,
// and the silent share of non-DRAM runs (a run resolved from a source
// profile is a DUE or a crash without simulation; a simulated poison run
// cannot raise either).
func simulatedRuns(c workload.CellResult) int {
	n := 0
	for s := faults.Source(0); s < faults.NumSources; s++ {
		for o := workload.Outcome(0); o < workload.NumOutcomes; o++ {
			if s == faults.SourceDRAM || (o != workload.DUE && o != workload.Crash) {
				n += c.BySource[s][o]
			}
		}
	}
	return n
}

// reference digests a small full-grid campaign.
func (w *outcomeWL) reference(seed int64) (string, error) {
	cells, err := workload.Campaign(workload.Options{Seed: seed, Runs: 8, Parallel: true})
	if err != nil {
		return "", err
	}
	return digest(cells)
}

func (w *outcomeWL) probes(seed int64, rec *recorder, layer map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	probeBitvec(rng, rec, layer)
	probeScalar(rng, rec, layer)
	probeReadPath(rng, rec, layer)
	probeMemory(rng, rec, layer)
	probeFaults(seed, workloadConfig, rec, layer)

	// Cell cost per kernel, one cell at a time so each is timed alone.
	// A failing cell leaves its metric unset, which the run reports.
	for _, k := range workload.Kernels() {
		var total float64
		ok := true
		for _, s := range workload.DefaultSchemes() {
			sp := rec.begin("workload.cell." + k.String())
			t0 := time.Now()
			_, err := workload.RunCell(s, k, workload.Options{Seed: seed, Runs: outcomeRuns})
			total += time.Since(t0).Seconds()
			rec.end(sp)
			ok = ok && err == nil
		}
		if ok {
			layer["workload.cell_s."+k.String()] = total / float64(len(workload.DefaultSchemes()))
		}
	}
}

// mixSeed derives the seed of loop l's rep-th campaign from the run seed.
func mixSeed(seed int64, l, rep int) int64 {
	return seed*1_000_003 + int64(l)*7_919_000 + int64(rep)
}
