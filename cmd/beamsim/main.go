// Command beamsim runs simulated neutron-beam experiments on the modeled
// GPU: the displacement-damage studies (Fig. 3) or a full soft-error
// pattern campaign whose mismatch log feeds cmd/classify.
//
// Campaigns are interruptible: with -checkpoint, every completed run is
// appended to the checkpoint file, SIGINT/SIGTERM stops the campaign
// cleanly (exit 0) after the last completed run, and -resume continues
// from the file — producing statistics identical to an uninterrupted
// run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/textplot"
)

func main() {
	exp := flag.String("experiment", "campaign",
		"experiment: campaign | refresh | accumulation | annealing | utilization")
	seed := flag.Int64("seed", 2021, "random seed")
	runs := flag.Int("runs", 300, "microbenchmark runs (campaign)")
	out := flag.String("o", "", "write the campaign event summary as JSON to this file")
	rawLogs := flag.String("logs", "", "write the raw mismatch logs (JSONL) to this file for cmd/classify -in")
	progress := flag.Int("progress", 0,
		"campaign mode: print a one-line status every N runs (0 = silent)")
	checkpoint := flag.String("checkpoint", "",
		"campaign mode: append every completed run to this checkpoint file")
	resume := flag.String("resume", "",
		"campaign mode: resume from this checkpoint file (same -seed/-runs required)")
	metrics := flag.String("metrics", "",
		"on exit, print per-phase span durations and dump all metrics in Prometheus text format to this file (\"-\" = stdout)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *exp {
	case "refresh":
		refreshExperiment(*seed)
	case "accumulation":
		accumulationExperiment(*seed)
	case "annealing":
		annealingExperiment(*seed)
	case "utilization":
		utilizationExperiment(*seed)
	case "campaign":
		campaignExperiment(ctx, *seed, *runs, *out, *rawLogs, *progress, *checkpoint, *resume)
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}

	if *metrics != "" {
		fmt.Println("\n== telemetry: per-phase span durations ==")
		if err := obs.DefaultTracer.WritePhaseSummary(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println("\n== telemetry: injection/event counters ==")
		printCounters(obs.Default.Snapshot(),
			"beam_injected_events_total", "beam_injected_faults_total",
			"beam_corruptions_total", "beam_weak_cells_created_total",
			"microbench_runs_total", "microbench_mismatch_records_total")
		if err := obs.Default.DumpPrometheus(*metrics); err != nil {
			log.Fatalf("writing metrics: %v", err)
		}
		if *metrics != "-" {
			fmt.Printf("metrics written to %s\n", *metrics)
		}
	}
}

// printCounters prints the selected counter families from a snapshot.
func printCounters(snap obs.Snapshot, names ...string) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, f := range snap.Families {
		if !want[f.Name] {
			continue
		}
		for _, s := range f.Series {
			label := ""
			for k, v := range s.Labels {
				label += fmt.Sprintf(" %s=%s", k, v)
			}
			fmt.Printf("%s%s: %.0f\n", f.Name, label, s.Value)
		}
	}
}

func refreshExperiment(seed int64) {
	fmt.Println("Damaging a GPU in the beam (displacement damage saturation)...")
	dev, _ := experiments.DamagedGPU(seed)
	fmt.Printf("damaged cells: %d\n\n", dev.WeakCellCount())
	periods := []float64{0.008, 0.012, 0.016, 0.024, 0.032, 0.048, 0.064}
	res, err := experiments.RefreshSweep(dev, periods, seed+1)
	if err != nil {
		log.Fatal(err)
	}
	t := textplot.NewTable("refresh ms", "measured weak cells", "normal-CDF prediction")
	for i := range periods {
		t.AddRow(periods[i]*1000, res.Counts[i], res.Predicted[i])
	}
	fmt.Println("Fig. 3a: weak cells vs refresh period")
	fmt.Println(t)
	fmt.Printf("Fig. 3b fit: retention ~ Normal(mu=%.1fms, sigma=%.1fms), pool ~%.0f cells\n",
		res.FitMu*1000, res.FitSigma*1000, res.FitScale)
}

func accumulationExperiment(seed int64) {
	res, err := experiments.Accumulation(seed, 40, 60)
	if err != nil {
		log.Fatal(err)
	}
	xs := make([]float64, len(res.Fluence))
	ys := make([]float64, len(res.Damaged))
	for i := range xs {
		xs[i] = res.Fluence[i]
		ys[i] = float64(res.Damaged[i])
	}
	fmt.Println("Fig. 3c: cumulative weak cells vs fluence")
	fmt.Print(textplot.Series(xs, ys, 60, 14, false))
	fmt.Printf("linear fit: slope %.3e cells/(n/cm²), R² = %.3f (paper: 0.97)\n",
		res.Fit.Slope, res.Fit.R2)
}

func annealingExperiment(seed int64) {
	dev, b := experiments.DamagedGPU(seed)
	periods := []float64{0.008, 0.048}
	res, err := experiments.Annealing(dev, b, periods, 3.5*3600, seed+2)
	if err != nil {
		log.Fatal(err)
	}
	t := textplot.NewTable("refresh ms", "before", "after 3.5h rest", "relative drop")
	for i := range periods {
		t.AddRow(periods[i]*1000, res.Before[i], res.After[i],
			fmt.Sprintf("%.1f%%", res.RelativeDrop[i]*100))
	}
	fmt.Println("§4 annealing (paper: 26% drop at 8ms, 2.5% at 48ms)")
	fmt.Println(t)
}

func utilizationExperiment(seed int64) {
	pts := experiments.UtilizationSweep(seed, []float64{0.25, 0.5, 1.0}, 60)
	t := textplot.NewTable("utilization", "multi-bit event fraction", "events")
	for _, p := range pts {
		t.AddRow(p.Utilization, fmt.Sprintf("%.3f", p.MultiBit.P), p.Events)
	}
	fmt.Println("§5 utilization sweep: logic-error share grows with memory accesses")
	fmt.Println(t)
}

func campaignExperiment(ctx context.Context, seed int64, runs int, out, rawLogs string, progress int, ckptPath, resumePath string) {
	cfg := experiments.CampaignConfig{Seed: seed, Runs: runs, Ctx: ctx}
	ckpt, err := experiments.OpenCheckpoint(cfg, ckptPath, resumePath)
	if err != nil {
		log.Fatalf("opening checkpoint: %v", err)
	}
	defer ckpt.Close()
	if resumePath != "" {
		// stderr, so a resumed run's stdout matches an uninterrupted one.
		log.Printf("resuming campaign from %s: %d/%d runs complete", resumePath, ckpt.Cells(), runs)
	}
	cfg.Checkpoint = ckpt
	fmt.Printf("Running %d microbenchmark runs in the beam...\n", runs)
	if progress > 0 {
		start := time.Now()
		records := 0
		cfg.OnRun = func(completed, total int, l *microbench.Log) {
			records += len(l.Records)
			if completed%progress == 0 || completed == total {
				fmt.Printf("progress: run %d/%d, %d mismatch records, %s elapsed\n",
					completed, total, records, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	logs, err := experiments.CampaignRun(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil && len(logs) < runs {
		fmt.Println(ckpt.Interrupted())
		return
	}
	if rawLogs != "" {
		if err := microbench.WriteLogs(rawLogs, logs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("raw mismatch logs written to %s\n", rawLogs)
	}
	an := classify.Analyze(logs, classify.Options{})
	fmt.Printf("events: %d, damaged entries filtered: %d, runs discarded: %d/%d\n",
		len(an.Events), len(an.DamagedEntries), an.DiscardedRuns, an.TotalRuns)
	if out != "" {
		if err := writeJSON(out, summarize(an.Events)); err != nil {
			log.Fatalf("writing event summary: %v", err)
		}
		fmt.Printf("event summary written to %s\n", out)
	}
	fmt.Println("Run cmd/classify for the full Figs. 4/5 and Table 1 breakdown,")
	fmt.Println("or pass -experiment refresh/accumulation/annealing for Fig. 3.")
}

// writeJSON encodes v to path, failing loudly on encode AND close errors
// (a dropped close error can silently truncate the summary on full disks).
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type eventSummary struct {
	Onset       float64 `json:"onset"`
	Class       string  `json:"class"`
	Breadth     int     `json:"breadth"`
	ByteAligned bool    `json:"byte_aligned"`
	Pattern     string  `json:"pattern"`
}

func summarize(events []classify.Event) []eventSummary {
	out := make([]eventSummary, 0, len(events))
	for _, ev := range events {
		out = append(out, eventSummary{
			Onset:       ev.Onset,
			Class:       ev.Class.String(),
			Breadth:     ev.Breadth(),
			ByteAligned: ev.ByteAligned,
			Pattern:     ev.Pattern.String(),
		})
	}
	return out
}
