// Command campaignd is the distributed campaign engine's process
// surface: a coordinator that shards the Monte-Carlo ECC evaluation
// into (scheme, pattern) cells and serves them over HTTP, and a worker
// mode that joins a remote coordinator and executes cells with the
// batch-decoder fast path.
//
// Coordinator (with two embedded workers and a resumable checkpoint):
//
//	campaignd -listen 127.0.0.1:8335 -workers 2 -samples 400000 -checkpoint campaign.ckpt
//
// A one-machine run on a free loopback port:
//
//	campaignd -listen 127.0.0.1:0 -workers 2
//
// Extra workers joining from other terminals or machines (a
// coordinator started with -workers 0 waits for them):
//
//	campaignd -join http://127.0.0.1:8335 -workers 2
//
// Both modes run on internal/cluster: the coordinator is a
// cluster.Local, the joining workers a cluster.RunWorkers pool. The
// coordinator exposes /v1/lease, /v1/complete, /v1/status, /metrics,
// /healthz and /spans. SIGINT/SIGTERM drains cleanly; a coordinator
// restarted with -resume skips every checkpointed cell. Every cell runs
// as one sampler stream, so the merged result is bit-identical to a
// single-stream sequential evaluation (ecceval at GOMAXPROCS=1) with
// the same seed and sample counts.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"time"

	"hbm2ecc/internal/cluster"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8335", "coordinator listen address")
	join := flag.String("join", "", "join this coordinator URL as a worker process instead of coordinating")
	workers := flag.Int("workers", 0, "embedded workers (coordinator mode; >=1 in -join mode)")
	seed := flag.Int64("seed", 2021, "campaign seed")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class")
	withDSC := flag.Bool("dsc", false, "include the rejected (36,32) DSC organization")
	checkpoint := flag.String("checkpoint", "", "append completed cells to this checkpoint file")
	resume := flag.String("resume", "", "resume from this checkpoint file (spec must match the flags)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Minute, "cell lease TTL before re-queue")
	flag.Parse()

	ctx, stop := httpx.SignalContext()
	defer stop()

	if *join != "" {
		if err := runWorkers(ctx, *join, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runCoordinator(ctx, *listen, *workers, *seed, *samples, *withDSC, *checkpoint, *resume, *leaseTTL); err != nil {
		log.Fatal(err)
	}
}

// runWorkers joins a remote coordinator with n worker loops (>=1).
func runWorkers(ctx context.Context, baseURL string, n int) error {
	if n < 1 {
		n = 1
	}
	return cluster.RunWorkers(ctx, n, cluster.WorkerOptions{BaseURL: baseURL}, func(w *cluster.Worker, err error) {
		switch {
		case err == nil:
			log.Printf("worker %s: campaign complete (%d cells, %d trials)", w.ID(), w.Completed(), w.Trials())
		case errors.Is(err, context.Canceled):
			log.Printf("worker %s: interrupted", w.ID())
		default:
			log.Printf("worker %s: %v", w.ID(), err)
		}
	})
}

func runCoordinator(ctx context.Context, listen string, workers int, seed int64, samples int, withDSC bool, checkpoint, resume string, leaseTTL time.Duration) error {
	names := core.Table2Names()
	if withDSC {
		names = append(names, "DSC")
	}
	spec := cluster.Spec{
		Schemes:      names,
		Seed:         seed,
		Samples3b:    samples,
		SamplesBeat:  samples,
		SamplesEntry: samples,
		Shards:       1,
	}

	ckpt, err := cluster.OpenCheckpoint(spec, checkpoint, resume)
	if err != nil {
		return err
	}
	defer ckpt.Close()
	copts := cluster.CoordinatorOptions{Spec: spec, LeaseTTL: leaseTTL}
	if ckpt != nil {
		if resume != "" {
			log.Printf("resuming campaign from %s: %d cells complete", resume, ckpt.Cells())
		}
		copts.Resume, copts.Progress = ckpt.Lookup, ckpt.Store
	}
	l, err := cluster.StartLocal(ctx, listen, copts, workers, cluster.WorkerOptions{ID: "embedded"})
	if err != nil {
		return err
	}
	coord := l.Coordinator
	log.Printf("coordinating %d cells on %s (%d embedded workers)", spec.NumCells(), l.URL(), workers)

	// Progress heartbeat for the operator's terminal.
	beatCtx, stopBeat := context.WithCancel(ctx)
	defer stopBeat()
	go func() {
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-beatCtx.Done():
				return
			case <-coord.Done():
				return
			case <-ticker.C:
				st := coord.Status()
				log.Printf("progress: %d/%d cells done, %d leased, %d pending, %d workers",
					st.Done, st.Total, st.Leased, st.Pending, len(st.Workers))
			}
		}
	}()

	results, err := l.Wait(ctx)
	if ctx.Err() != nil {
		log.Print(ckpt.Interrupted())
		return nil
	}
	if err != nil {
		return err
	}
	if err := ckpt.Err(); err != nil {
		return err
	}
	st := coord.Status()
	for _, w := range st.Workers {
		log.Printf("worker %s: %d cells, %d trials, %.0f trials/sec (%d failures)",
			w.ID, w.Completed, w.Trials, w.TrialsPerSec, w.Failures)
	}
	log.Printf("campaign done: %d cells, %d re-queues, %d conflicts, %d evictions",
		st.Total, st.Requeues, st.Conflicts, st.Evictions)
	return evalmc.WriteReport(os.Stdout, results)
}
