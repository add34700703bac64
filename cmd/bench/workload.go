package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"hbm2ecc/internal/workload"
)

// WorkloadCellBench is one (scheme, kernel) cell's throughput point.
type WorkloadCellBench struct {
	Scheme string `json:"scheme"`
	Kernel string `json:"kernel"`
	Runs   int    `json:"runs"`
	// OpsPerRun is the kernel's deterministic memory-op count.
	OpsPerRun int64 `json:"ops_per_run"`
	// RunsPerSec is full fault-injection runs (device build, kernel
	// execution through the ECC read path, classification) per second.
	RunsPerSec float64 `json:"runs_per_sec"`
	// Outcome mix, as fractions of runs — the payload the throughput
	// buys; also a cross-machine determinism check (machine-independent
	// for a given seed).
	Masked      float64 `json:"masked"`
	Tolerable   float64 `json:"tolerable_sdc"`
	CriticalSDC float64 `json:"critical_sdc"`
	DUE         float64 `json:"due"`
	Crash       float64 `json:"crash"`
}

// WorkloadReport is the BENCH_workload.json schema.
type WorkloadReport struct {
	Schema     string              `json:"schema"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Seed       int64               `json:"seed"`
	Runs       int                 `json:"runs_per_cell"`
	Quick      bool                `json:"quick"`
	Cells      []WorkloadCellBench `json:"cells"`
	// TotalRunsPerSec is the whole campaign's aggregate throughput with
	// cell-level parallelism on.
	TotalRunsPerSec float64 `json:"total_runs_per_sec"`
	WallMS          float64 `json:"wall_ms"`
	// ResumeIdentical is the checkpoint-resume differential lock: a
	// mid-campaign checkpoint is taken, resumed, and the merged results
	// must DeepEqual the uninterrupted run. The bench run fails if false.
	ResumeIdentical bool `json:"resume_identical"`
}

// runWorkloadBench measures the workload outcome engine's throughput:
// full campaign wall clock, per-cell runs/sec, and the checkpoint-resume
// differential lock.
func runWorkloadBench(out string, seed int64, quick bool) error {
	runs := 300
	if quick {
		runs = 40
	}
	opts := workload.Options{Seed: seed, Runs: runs, Parallel: true}

	rep := WorkloadReport{
		Schema:     "hbm2ecc/bench_workload/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Runs:       runs,
		Quick:      quick,
	}

	start := time.Now()
	results, err := workload.Campaign(opts)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	rep.WallMS = float64(wall.Microseconds()) / 1000

	totalRuns := 0
	fmt.Printf("%-10s %-10s %6s %8s %12s %8s %8s %8s %8s %8s\n",
		"scheme", "kernel", "runs", "ops/run", "runs/sec", "masked", "tolSDC", "critSDC", "DUE", "crash")
	for _, r := range results {
		totalRuns += r.Runs
		// Per-cell rate: re-time one cell in isolation so the number is
		// not distorted by cell-level parallelism.
		t0 := time.Now()
		if _, err := workload.RunCell(r.Scheme, r.Kernel, workload.Options{Seed: seed, Runs: runs}); err != nil {
			return err
		}
		rate := float64(runs) / time.Since(t0).Seconds()
		cb := WorkloadCellBench{
			Scheme: r.Scheme, Kernel: r.Kernel.String(), Runs: r.Runs,
			OpsPerRun: r.TotalOps, RunsPerSec: rate,
			Masked: r.Frac(workload.Masked), Tolerable: r.Frac(workload.TolerableSDC),
			CriticalSDC: r.Frac(workload.CriticalSDC), DUE: r.Frac(workload.DUE),
			Crash: r.Frac(workload.Crash),
		}
		rep.Cells = append(rep.Cells, cb)
		fmt.Printf("%-10s %-10s %6d %8d %12.1f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			cb.Scheme, cb.Kernel, cb.Runs, cb.OpsPerRun, cb.RunsPerSec,
			cb.Masked, cb.Tolerable, cb.CriticalSDC, cb.DUE, cb.Crash)
	}
	rep.TotalRunsPerSec = float64(totalRuns) / wall.Seconds()
	fmt.Printf("campaign: %d runs in %.1fms (%.1f runs/sec aggregate)\n",
		totalRuns, rep.WallMS, rep.TotalRunsPerSec)

	// Checkpoint-resume differential lock: interrupt after half the
	// cells, resume from the stored cells, require identical results.
	rep.ResumeIdentical, err = resumeDifferential(opts, results)
	if err != nil {
		return err
	}
	if !rep.ResumeIdentical {
		return fmt.Errorf("workload bench: resumed campaign differs from uninterrupted run")
	}
	fmt.Println("checkpoint-resume differential: identical")

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// resumeDifferential checkpoints half of the full run's cells to a
// file, resumes the campaign from that file, and compares against full.
func resumeDifferential(opts workload.Options, full []workload.CellResult) (bool, error) {
	dir, err := os.MkdirTemp("", "hbm2ecc-workload-resume")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "workload.ckpt.json")
	ck, err := workload.OpenCheckpoint(opts, path, "")
	if err != nil {
		return false, err
	}
	for i, r := range full {
		if i%2 == 0 {
			ck.Store(r.Scheme, r.Kernel, r)
		}
	}
	if err := ck.Err(); err != nil {
		return false, err
	}
	ck.Close()
	if ck, err = workload.OpenCheckpoint(opts, "", path); err != nil {
		return false, err
	}
	defer ck.Close()
	resumed := opts
	resumed.Resume = ck.Lookup
	got, err := workload.Campaign(resumed)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(got, full), nil
}
