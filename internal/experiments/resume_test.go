package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/microbench"
)

// TestCampaignResumeEqualsUninterrupted is the resilience acceptance test:
// a campaign cancelled mid-flight, checkpointed to disk, and resumed must
// produce logs — and therefore statistics — identical to an uninterrupted
// campaign with the same config.
func TestCampaignResumeEqualsUninterrupted(t *testing.T) {
	cfg := CampaignConfig{Seed: 77, Runs: 6}
	full, err := CampaignRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 {
		t.Fatalf("full campaign: %d logs, want 6", len(full))
	}

	// Interrupted campaign: every run goes to the checkpoint file; cancel
	// after 3.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ckpt, err := OpenCheckpoint(cfg, path, "")
	if err != nil {
		t.Fatal(err)
	}
	partial, err := CampaignRun(CampaignConfig{
		Seed: 77, Runs: 6, Ctx: ctx, Checkpoint: ckpt,
		OnRun: func(completed, _ int, _ *microbench.Log) {
			if completed == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 3 {
		t.Fatalf("interrupted campaign: %d logs, want 3", len(partial))
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from the file (exercises the JSON round-trip).
	resumed := resumeFrom(t, cfg, path, 3)
	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("resumed campaign logs differ from uninterrupted campaign")
	}
	// And the derived statistics agree (belt and braces: this is what the
	// paper's tables are computed from).
	af := classify.Analyze(full, classify.Options{})
	ar := classify.Analyze(resumed, classify.Options{})
	if !reflect.DeepEqual(af.Table1(), ar.Table1()) {
		t.Fatal("per-pattern (Table 1) statistics diverged after resume")
	}
	if !reflect.DeepEqual(af.ClassBreakdown(), ar.ClassBreakdown()) {
		t.Fatal("error-class breakdown diverged after resume")
	}
}

// resumeFrom resumes cfg from path, which must hold want completed runs.
func resumeFrom(t *testing.T, cfg CampaignConfig, path string, want int) []*microbench.Log {
	t.Helper()
	ckpt, err := OpenCheckpoint(cfg, "", path)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if ckpt.Cells() != want {
		t.Fatalf("checkpoint holds %d runs, want %d", ckpt.Cells(), want)
	}
	cfg.Checkpoint = ckpt
	logs, err := CampaignRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != cfg.Runs {
		t.Fatalf("resumed campaign: %d logs, want %d", len(logs), cfg.Runs)
	}
	return logs
}

// TestCampaignTornTailIsRecomputed drops the last run from a finished
// campaign's file — torn mid-frame, or with a payload byte flipped — and
// resumes: the lost run is recomputed and the logs match the originals.
func TestCampaignTornTailIsRecomputed(t *testing.T) {
	cfg := CampaignConfig{Seed: 5, Runs: 4}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ckpt, err := OpenCheckpoint(cfg, path, "")
	if err != nil {
		t.Fatal(err)
	}
	withCkpt := cfg
	withCkpt.Checkpoint = ckpt
	full, err := CampaignRun(withCkpt)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func([]byte) []byte{
		"torn":    func(b []byte) []byte { return b[:len(b)-7] },
		"bad-crc": func(b []byte) []byte { b[len(b)-2] ^= 0x20; return b },
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, damage(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := resumeFrom(t, cfg, path, 3); !reflect.DeepEqual(got, full) {
				t.Fatal("campaign resumed past a damaged tail differs from the original")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(intact) {
				t.Fatal("re-stored run did not restore the file byte for byte")
			}
		})
	}
}

func TestCampaignCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	logs, err := CampaignRun(CampaignConfig{Seed: 3, Runs: 50, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 0 {
		t.Fatalf("cancelled campaign completed %d runs, want 0", len(logs))
	}
}

// TestCampaignCheckpointMismatchRejected refuses checkpoints that cannot
// resume the campaign: another config echo, a gap in the run prefix, a
// run beyond the campaign, and a log whose replay ends elsewhere.
func TestCampaignCheckpointMismatchRejected(t *testing.T) {
	cfg := CampaignConfig{Seed: 1, Runs: 3}
	logs, err := CampaignRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// save writes the given runs of logs (mutated by edit) to a file.
	save := func(name string, runs []int, edit func(*microbench.Log)) string {
		path := filepath.Join(dir, name)
		ckpt, err := OpenCheckpoint(CampaignConfig{Seed: 1, Runs: 3}, path, "")
		if err != nil {
			t.Fatal(err)
		}
		defer ckpt.Close()
		for _, run := range runs {
			l := *logs[run%len(logs)]
			if edit != nil {
				edit(&l)
			}
			ckpt.Store(beamScheme, runKey(run), &l)
		}
		return path
	}
	if _, err := OpenCheckpoint(CampaignConfig{Seed: 2, Runs: 3}, "", save("seed", []int{0}, nil)); err == nil ||
		!strings.Contains(err.Error(), "was taken under config") {
		t.Fatalf("checkpoint of another seed: err = %v", err)
	}
	for _, tc := range []struct {
		name string
		path string
		want string
	}{
		{"gap", save("gap", []int{0, 2}, nil), "gap-free prefix"},
		{"missing-first", save("missing-first", []int{1}, nil), "gap-free prefix"},
		{"beyond-runs", save("beyond", []int{0, 1, 2, 3}, nil), "gap-free prefix"},
		{"end-time", save("end-time", []int{0, 1}, func(l *microbench.Log) { l.EndTime++ }), "ends at"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt, err := OpenCheckpoint(cfg, "", tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer ckpt.Close()
			run := cfg
			run.Checkpoint = ckpt
			if _, err := CampaignRun(run); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
