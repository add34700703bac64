package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
)

var mResumedRuns = obs.NewCounter("campaign_resumed_runs_total",
	"Completed runs replayed (not re-evaluated) when resuming a campaign "+
		"from a checkpoint.").With()

// beamScheme is the scheme every beam-campaign cell is stored under:
// the campaign reads the device with DRAM ECC disabled.
const beamScheme = "none"

// runKey keys a beam-campaign checkpoint cell by its run index.
type runKey int

func (r runKey) String() string { return strconv.Itoa(int(r)) }

func (cfg *CampaignConfig) defaults() {
	if cfg.Runs == 0 {
		cfg.Runs = 300
	}
	if cfg.MTTE == 0 {
		cfg.MTTE = 5
	}
}

// stageName names an on-die stage for the checkpoint echo; stages expose
// their registry name via an optional Name method.
func stageName(s dram.OnDieStage) string {
	if s == nil {
		return ""
	}
	if n, ok := s.(interface{ Name() string }); ok {
		return n.Name()
	}
	return "unnamed"
}

// OpenCheckpoint opens the beam campaign's checkpoint (see campaign.Open);
// set it as CampaignConfig.Checkpoint. Its cells are ("none", run index)
// → the run's log. The config echo is everything that shapes the run
// sequence: the seed, the run count, the MTTE and the on-die stage's
// name (observations depend on the stage, so resuming under another
// one would silently mix distorted and raw records).
func OpenCheckpoint(cfg CampaignConfig, checkpointPath, resumePath string) (*campaign.Checkpoint[runKey, *microbench.Log], error) {
	cfg.defaults()
	echo := struct {
		Seed  int64   `json:"seed"`
		Runs  int     `json:"runs"`
		MTTE  float64 `json:"mtte"`
		OnDie string  `json:"ondie"`
	}{cfg.Seed, cfg.Runs, cfg.MTTE, stageName(cfg.OnDie)}
	return campaign.Open[runKey, *microbench.Log](echo, checkpointPath, resumePath)
}

// CampaignRun executes the beam campaign with optional cancellation and
// checkpoint/resume. It returns the logs of all completed runs; when the
// context is cancelled mid-campaign the in-flight run is discarded and the
// completed prefix is returned with a nil error. Every returned run is
// in cfg.Checkpoint by then (each run's Store overlaps the next run), so
// the campaign can be resumed from it.
//
// Resume is replay-based: the checkpoint must hold a gap-free prefix of
// runs, which re-execute their write/exposure schedule (identical RNG
// consumption on the campaign beam, no read evaluation), so a resumed
// campaign's device, beam, and clock state — and therefore every
// subsequent run — are bit-identical to an uninterrupted campaign with
// the same config. Each replayed run must end at its stored log's
// EndTime.
func CampaignRun(cfg CampaignConfig) ([]*microbench.Log, error) {
	cfg.defaults()
	var logs []*microbench.Log
	if ck := cfg.Checkpoint; ck != nil {
		for run := 0; ; run++ {
			l, ok := ck.Lookup(beamScheme, runKey(run))
			if !ok || l == nil {
				break
			}
			logs = append(logs, l)
		}
		if n := ck.Cells(); n != len(logs) || n > cfg.Runs {
			return nil, fmt.Errorf("experiments: checkpoint holds %d cells, not a gap-free prefix of runs 0..%d",
				n, cfg.Runs-1)
		}
	}
	start := len(logs)

	span := obs.DefaultTracer.Start("campaign")
	span.SetAttr("runs", strconv.Itoa(cfg.Runs))
	defer span.Finish()
	setup := span.Child("device_setup")
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	if cfg.OnDie != nil {
		dev.SetOnDie(cfg.OnDie)
	}
	b := beam.New(dev, beam.Config{
		Seed:           cfg.Seed,
		SEURatePerFlux: 1 / (cfg.MTTE * beam.ChipIRFlux),
	})
	if cfg.Ctx != nil {
		b.SetContext(cfg.Ctx)
	}
	setup.Finish()

	t := 0.0
	if start > 0 {
		// Rebuild device/beam/clock state behind the checkpoint.
		replay := span.Child("replay")
		replay.SetAttr("runs", strconv.Itoa(start))
		for run := 0; run < start; run++ {
			log := microbench.Run(campaignRunConfig(cfg, dev, b, run, t))
			if log.EndTime != logs[run].EndTime {
				replay.Finish()
				return nil, fmt.Errorf("experiments: replayed run %d ends at %g, its checkpointed log at %g",
					run, log.EndTime, logs[run].EndTime)
			}
			t = log.EndTime
		}
		replay.Finish()
		mResumedRuns.Add(uint64(start))
	}

	// Each run's Store (encode, append, fsync) overlaps the next run.
	var saving sync.WaitGroup
	defer saving.Wait()
	for run := start; run < cfg.Runs; run++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break
		}
		rs := span.Child("run")
		runCfg := campaignRunConfig(cfg, dev, b, run, t)
		runCfg.Replay = false
		runCfg.Span = rs
		log := microbench.Run(runCfg)
		rs.SetAttr("pattern", log.Pattern.String())
		rs.Finish()
		if log.Cancelled {
			// Partial run: its records and clock must not enter the
			// campaign. Resume re-executes it from the write pass.
			break
		}
		t = log.EndTime
		logs = append(logs, log)
		if cfg.Checkpoint != nil {
			saving.Wait()
			if err := cfg.Checkpoint.Err(); err != nil {
				return logs, err
			}
			saving.Add(1)
			go func() {
				defer saving.Done()
				cfg.Checkpoint.Store(beamScheme, runKey(run), log)
			}()
		}
		if cfg.OnRun != nil {
			cfg.OnRun(run+1, cfg.Runs, log)
		}
	}
	saving.Wait()
	return logs, cfg.Checkpoint.Err()
}

// campaignRunConfig builds the per-run microbenchmark config; Replay is
// set so callers reconstructing state get the cheap path by default.
func campaignRunConfig(cfg CampaignConfig, dev *dram.Device, b *beam.Beam, run int, t float64) microbench.Config {
	return microbench.Config{
		Device:    dev,
		Beam:      b,
		Pattern:   microbench.PatternKind(run % int(microbench.NumPatterns)),
		StartTime: t,
		Seed:      cfg.Seed*1_000_003 + int64(run),
		Ctx:       cfg.Ctx,
		Replay:    true,
	}
}
