package evalmc

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
)

func TestEvaluateCtxCancelledEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := smallOpts()
	opts.Ctx = ctx
	res, err := EvaluateCtx(core.NewSECDED(false, false), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		if res.PerPattern[p].N != 0 {
			t.Fatalf("pattern %v evaluated despite cancelled context", p)
		}
	}
}

// TestEvaluateResumeEqualsUninterrupted interrupts an evaluation after two
// pattern classes, checkpoints to disk, resumes, and checks the final
// results are identical to an uninterrupted evaluation.
func TestEvaluateResumeEqualsUninterrupted(t *testing.T) {
	s := core.NewDuetECC()
	opts := smallOpts()
	full := Evaluate(s, opts)

	// Interrupted: cancel after the second completed pattern class.
	path := filepath.Join(t.TempDir(), "eval.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckpt, err := OpenCheckpoint(opts, path, "")
	if err != nil {
		t.Fatal(err)
	}
	iopts := opts
	iopts.Ctx = ctx
	iopts.Progress = func(scheme string, p errormodel.Pattern, r PatternResult) {
		ckpt.Store(scheme, p, r)
		if err := ckpt.Err(); err != nil {
			t.Fatalf("checkpoint save: %v", err)
		}
		if ckpt.Cells() == 2 {
			cancel()
		}
	}
	if _, err := EvaluateCtx(s, iopts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Resume from disk: cached cells are reused, the rest re-evaluated.
	loaded, err := OpenCheckpoint(opts, "", path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cells() != 2 {
		t.Fatalf("loaded checkpoint has %d cells, want 2", loaded.Cells())
	}
	ropts := opts
	ropts.Resume = loaded.Lookup
	resumed, err := EvaluateCtx(s, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed results differ from uninterrupted:\n%+v\nvs\n%+v", full, resumed)
	}
}

// TestCheckpointCompatibility pins the config echo: a checkpoint
// resumes under its own options and refuses a different seed.
func TestCheckpointCompatibility(t *testing.T) {
	opts := smallOpts()
	path := filepath.Join(t.TempDir(), "eval.ckpt.json")
	ckpt, err := OpenCheckpoint(opts, path, "")
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Store("DuetECC", errormodel.Bit1, PatternResult{Pattern: errormodel.Bit1, Exhaustive: true, N: 288, DCE: 288})
	if err := ckpt.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(opts, "", path); err != nil {
		t.Fatalf("self-compatibility failed: %v", err)
	}
	other := opts
	other.Seed++
	if _, err := OpenCheckpoint(other, "", path); err == nil {
		t.Fatal("checkpoint accepted a different seed")
	}
}

// TestCheckpointRefusesResumeUnderAnotherGOMAXPROCS: a Parallel run
// without pinned Shards splits each sampled class into GOMAXPROCS
// streams, so a checkpoint written at one GOMAXPROCS holds cells another
// GOMAXPROCS would not compute. The echo records the split actually
// used, and the resume is refused.
func TestCheckpointRefusesResumeUnderAnotherGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	opts := smallOpts() // Parallel, Shards 0
	path := filepath.Join(t.TempDir(), "eval.ckpt")
	ckpt, err := OpenCheckpoint(opts, path, "")
	if err != nil {
		t.Fatal(err)
	}
	opts.Progress = ckpt.Store
	if _, err := EvaluateCtx(core.NewSECDED(false, false), opts); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	opts.Progress = nil
	if _, err := OpenCheckpoint(opts, "", path); err != nil {
		t.Fatalf("resume at the same GOMAXPROCS refused: %v", err)
	}
	runtime.GOMAXPROCS(1)
	if _, err := OpenCheckpoint(opts, "", path); err == nil {
		t.Fatal("checkpoint written at GOMAXPROCS=2 resumed at GOMAXPROCS=1")
	}
}

// TestResumeRefusesTamperedCells stores results no evaluation under the
// checkpoint's options could produce, and resumes from the file: each
// must fail the evaluation rather than print as a Table 2 cell.
func TestResumeRefusesTamperedCells(t *testing.T) {
	s := core.NewDuetECC()
	opts := smallOpts()
	n := CellTrials(errormodel.Bits3, opts)
	for name, r := range map[string]PatternResult{
		"short-N":         {Pattern: errormodel.Bits3, N: 5, DCE: 5},
		"counts-mismatch": {Pattern: errormodel.Bits3, N: n, DCE: n - 1},
		"exhaustive-flag": {Pattern: errormodel.Bits3, Exhaustive: true, N: n, DCE: n},
		"other-pattern":   {Pattern: errormodel.Bit1, N: n, DCE: n},
		"negative-count":  {Pattern: errormodel.Bits3, N: n, DCE: n + 1, SDC: -1},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "eval.ckpt")
			ckpt, err := OpenCheckpoint(opts, path, "")
			if err != nil {
				t.Fatal(err)
			}
			ckpt.Store(s.Name(), errormodel.Bits3, r)
			ckpt.Close()
			loaded, err := OpenCheckpoint(opts, "", path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			ropts := opts
			ropts.Resume = loaded.Lookup
			if _, err := EvaluateCtx(s, ropts); err == nil {
				t.Fatalf("tampered cell %+v accepted", r)
			}
		})
	}
}
