package main

import (
	"math/rand"
	"time"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/obs"
)

// mcSamples is the Monte-Carlo sample count of each sampled pattern
// class per scheme; the enumerable classes always run exhaustively.
const mcSamples = 12_000

// mcShards pins the sampler streams so results do not depend on the
// machine's GOMAXPROCS.
const mcShards = 2

// patternShort names the Table-1 patterns in metric names, by index.
var patternShort = [errormodel.NumPatterns]string{"bit1", "pin1", "byte1", "bits2", "bits3", "beat1", "entry1"}

type montecarloWL struct {
	schemes []core.Scheme
}

func (w *montecarloWL) close() { w.schemes = nil }

func (w *montecarloWL) opts(seed int64) evalmc.Options {
	return evalmc.Options{Seed: seed, Samples3b: mcSamples, SamplesBeat: mcSamples,
		SamplesEntry: mcSamples, Parallel: true, Shards: mcShards}
}

// setup builds the Table-2 schemes' decode tables and warms each with
// its exhaustive 1-bit class.
func (w *montecarloWL) setup(bool) error {
	w.schemes = core.Table2Schemes()
	for _, s := range w.schemes {
		if _, err := evalmc.EvaluateCell(s, errormodel.Bit1, w.opts(1)); err != nil {
			return err
		}
	}
	return nil
}

func (w *montecarloWL) body(seed int64, d time.Duration, rec *recorder, layer map[string]float64) *bodyResult {
	res := &bodyResult{}
	before := map[*obs.Span]bool{}
	for _, r := range obs.DefaultTracer.Roots() {
		before[r] = true
	}
	var rates []float64
	reps := 0
	start := time.Now()
	for rep := 0; time.Since(start) < d; rep++ {
		opts := w.opts(mixSeed(seed, 0, rep))
		c0 := cpuSeconds()
		prev := c0
		opts.Progress = func(string, errormodel.Pattern, evalmc.PatternResult) {
			now := cpuSeconds()
			res.lat = append(res.lat, (now-prev)*1000)
			prev = now
		}
		sp := rec.begin("evalmc.evaluate_all")
		out, err := evalmc.EvaluateAllCtx(w.schemes, opts)
		rec.end(sp)
		if err != nil {
			res.problem("evaluate: %v", err)
			res.failed++
			res.attempted++
			break
		}
		trials := 0
		for _, sr := range out {
			for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
				r := sr.PerPattern[p]
				want := evalmc.CellTrials(p, opts)
				trials += want
				if r.Pattern != p || r.N != want || r.DCE+r.DUE+r.SDC != r.N {
					res.problem("%s/%s: %d trials (%d+%d+%d), want %d",
						sr.Scheme, p, r.N, r.DCE, r.DUE, r.SDC, want)
					res.failed += int64(want)
				}
			}
		}
		res.attempted += int64(trials)
		res.work += float64(trials)
		rates = append(rates, float64(trials)/(cpuSeconds()-c0))
		reps++
		if rec == nil {
			res.sampleHeap(out)
		}
	}
	res.workPerS = quantile(rates, 0.5)
	if rec == nil || reps == 0 {
		return res
	}
	layer["evalmc.trials"] = res.work / float64(reps)
	// The program's evalmc.evaluate -> pattern spans, children in
	// pattern order.
	var sum [errormodel.NumPatterns]float64
	var n [errormodel.NumPatterns]int
	for _, r := range obs.DefaultTracer.Roots() {
		if before[r] || r.Name != "evalmc.evaluate" {
			continue
		}
		for i, c := range r.Children() {
			if i < len(sum) && c.Name == "pattern" {
				sum[i] += c.Duration().Seconds() * 1000
				n[i]++
			}
		}
	}
	for i := range sum {
		if n[i] > 0 {
			layer["evalmc.pattern_ms."+patternShort[i]] = sum[i] / float64(n[i])
		}
	}
	return res
}

// reference digests a small Table-2 evaluation.
func (w *montecarloWL) reference(seed int64) (string, error) {
	opts := w.opts(seed)
	opts.Samples3b, opts.SamplesBeat, opts.SamplesEntry = 3000, 3000, 3000
	out, err := evalmc.EvaluateAllCtx(core.Table2Schemes(), opts)
	if err != nil {
		return "", err
	}
	return digest(out)
}

func (w *montecarloWL) probes(seed int64, rec *recorder, layer map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	probeTranspose(rng, rec, layer)
	probeBatch(rng, rec, layer, "duet", "trio", "sscdsd")
	probeSlabClassify(rng, rec, layer)
	probeSampler(seed, rec, layer)
}
