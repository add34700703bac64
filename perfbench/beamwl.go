package main

import (
	"math/rand"
	"time"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
)

// beamRuns is the microbenchmark runs per campaign. The weak-cell and
// record working set grows through a campaign, so per-run cost depends
// on this length; it is fixed so every measurement sees the same mix.
// A campaign's cost follows its heavy-tailed record count, so short
// campaigns, many to a measurement, keep the medians steady: with 48
// runs they spread 13-15% between seeds, with 12 runs about 5%.
const beamRuns = 12

type beamWL struct{}

func (w *beamWL) close() {}

// setup builds the V100 device and beam and runs a short campaign.
func (w *beamWL) setup(bool) error {
	logs, err := experiments.CampaignRun(experiments.CampaignConfig{Seed: 1, Runs: 2})
	if err != nil {
		return err
	}
	classify.Analyze(logs, classify.Options{})
	return nil
}

func (w *beamWL) body(seed int64, d time.Duration, rec *recorder, layer map[string]float64) *bodyResult {
	res := &bodyResult{}
	before := map[*obs.Span]bool{}
	for _, r := range obs.DefaultTracer.Roots() {
		before[r] = true
	}
	phase0 := phaseTotals()

	var rates []float64
	var records float64
	start := time.Now()
	for rep := 0; time.Since(start) < d; rep++ {
		c0 := cpuSeconds()
		prev := c0
		sp := rec.begin("experiments.campaign_run")
		logs, err := experiments.CampaignRun(experiments.CampaignConfig{
			Seed: mixSeed(seed, 0, rep),
			Runs: beamRuns,
			OnRun: func(int, int, *microbench.Log) {
				now := cpuSeconds()
				res.lat = append(res.lat, (now-prev)*1000)
				prev = now
			},
		})
		rec.end(sp)
		res.attempted += beamRuns
		if err != nil {
			res.problem("campaign: %v", err)
			res.failed += beamRuns
			break
		}
		sp = rec.begin("classify.analyze")
		a := classify.Analyze(logs, classify.Options{})
		rec.end(sp)
		rates = append(rates, float64(beamRuns)/(cpuSeconds()-c0))
		if msg := checkBeam(logs, a); msg != "" {
			res.problem("beam rep %d: %s", rep, msg)
			res.failed += beamRuns
		}
		for _, l := range logs {
			records += float64(len(l.Records))
		}
		res.work += float64(len(logs))
		if rec == nil {
			res.sampleHeap([]any{logs, a})
		}
	}
	res.workPerS = quantile(rates, 0.5)
	if rec == nil || res.work == 0 {
		return res
	}

	phase1 := phaseTotals()
	for _, p := range []string{"write_pass", "read_scan", "evaluate"} {
		layer["microbench."+p+"_ms"] = (phase1[p] - phase0[p]).Seconds() * 1000 / res.work
	}
	layer["microbench.records_per_run"] = records / res.work
	layer["classify.analyze_ms"] = rec.meanNS("classify.analyze") / 1e6
	// Run spans of each campaign, in run order, from the program's own
	// campaign -> run span tree.
	var first, last []float64
	dec := beamRuns / 10
	for _, r := range obs.DefaultTracer.Roots() {
		if before[r] || r.Name != "campaign" {
			continue
		}
		var runs []float64
		for _, c := range r.Children() {
			if c.Name == "run" {
				runs = append(runs, c.Duration().Seconds()*1000)
			}
		}
		if len(runs) == beamRuns {
			first = append(first, runs[:dec]...)
			last = append(last, runs[beamRuns-dec:]...)
		}
	}
	layer["microbench.run_ms.first_decile"] = mean(first)
	layer["microbench.run_ms.last_decile"] = mean(last)
	return res
}

// checkBeam is the oracle on one campaign: every requested run produced
// a log inside its time window, and the analysis accounted for each.
func checkBeam(logs []*microbench.Log, a *classify.Analysis) string {
	if len(logs) != beamRuns || a.TotalRuns != beamRuns || a.DiscardedRuns > a.TotalRuns {
		return "run count differs from the request"
	}
	for _, l := range logs {
		if l.EndTime <= l.StartTime || l.Cancelled {
			return "run log has an empty or cancelled time window"
		}
	}
	for _, e := range a.Events {
		if len(e.Entries) == 0 {
			return "event without entries"
		}
	}
	return ""
}

func phaseTotals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, p := range obs.DefaultTracer.Phases() {
		out[p.Name] = p.Total
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// reference digests a short campaign's logs and its Table-1 breakdown.
func (w *beamWL) reference(seed int64) (string, error) {
	logs, err := experiments.CampaignRun(experiments.CampaignConfig{Seed: seed, Runs: 12})
	if err != nil {
		return "", err
	}
	a := classify.Analyze(logs, classify.Options{})
	return digest(struct {
		Logs   []*microbench.Log
		Table1 any
		Events int
	}{logs, a.Table1(), len(a.Events)})
}

// probes replays a campaign of the same length on a device of its own,
// through the public microbenchmark entry point, so the raw read and
// the beam are timed against a grown weak-cell working set.
func (w *beamWL) probes(seed int64, rec *recorder, layer map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	probeBitvec(rng, rec, layer)
	probeFaults(seed, hbm2.V100(), rec, layer)

	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	b := beam.New(dev, beam.Config{Seed: seed, SEURatePerFlux: 1 / (5 * beam.ChipIRFlux)})
	t := 0.0
	for run := 0; run < beamRuns; run++ {
		log := microbench.Run(microbench.Config{Device: dev, Beam: b,
			Pattern: microbench.PatternKind(run % int(microbench.NumPatterns)), StartTime: t, Seed: seed + int64(run)})
		t = log.EndTime
	}
	layer["dram.weak_cells"] = float64(dev.WeakCellCount())
	probeRawRead(rng, dev, rec, layer)
	const pass = 0.05
	layer["beam.expose_us"] = probe(rec, "beam.expose", probeCalls/4, func(int) {
		evs := b.Expose(t, t+pass, 1)
		t += pass
		sink += uint64(len(evs))
	}) / 1000
}
