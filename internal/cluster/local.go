package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

// Local is a coordinator served through the shared daemon bootstrap
// with n embedded worker goroutines speaking the real wire protocol
// over loopback. It is the one front end of the campaign engine:
// campaignd, the scaling benchmark and the tests all run it, and
// remote workers (campaignd -join) reach the same coordinator by URL.
type Local struct {
	Coordinator *Coordinator

	daemon *httpx.Daemon
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// workersGone is closed once every embedded worker has returned,
	// after workerErr is set. It stays nil (never ready) with no
	// embedded workers: remote workers may still join.
	workersGone chan struct{}
	workerErr   error
}

// StartLocal serves copts's coordinator on addr (a host:port listen
// address; "127.0.0.1:0" picks a free loopback port) and starts n >= 0
// embedded workers against it. Callers must Wait (or cancel ctx)
// before reading results.
func StartLocal(ctx context.Context, addr string, copts CoordinatorOptions, n int, wopts WorkerOptions) (*Local, error) {
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", n)
	}
	coord, err := NewCoordinator(copts)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	daemon, err := httpx.StartDaemon(runCtx, "campaignd", addr, coord.Handler(), MaxFrame)
	if err != nil {
		cancel()
		return nil, err
	}
	l := &Local{Coordinator: coord, daemon: daemon, cancel: cancel}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		coord.Run(runCtx)
	}()
	if n > 0 {
		if wopts.ID == "" {
			wopts.ID = "local"
		}
		wopts.BaseURL = l.URL()
		l.workersGone = make(chan struct{})
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.workerErr = RunWorkers(runCtx, n, wopts, nil)
			close(l.workersGone)
		}()
	}
	return l, nil
}

// URL returns the coordinator's base URL, for workers joining it.
func (l *Local) URL() string { return l.daemon.URL() }

// Wait blocks until the campaign completes, every embedded worker has
// exited, or ctx is cancelled, then tears the server and workers down
// and returns the merged results. When the embedded workers are all
// gone before the campaign is done (say, every one was evicted), it
// returns their errors joined.
func (l *Local) Wait(ctx context.Context) ([]evalmc.SchemeResult, error) {
	select {
	case <-l.Coordinator.Done():
	case <-l.workersGone:
	case <-ctx.Done():
	}
	l.cancel()
	l.wg.Wait()
	srvErr := l.daemon.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.Coordinator.Err(); err != nil {
		return nil, err
	}
	if srvErr != nil {
		return nil, fmt.Errorf("cluster: coordinator server: %w", srvErr)
	}
	select {
	case <-l.Coordinator.Done():
	default:
		// Worker errors after a complete merge are harmless (a worker
		// evicted while others finished); here nothing is left to run.
		return nil, errors.Join(errors.New("cluster: every worker exited before the campaign completed"), l.workerErr)
	}
	return l.Coordinator.Results()
}

// RunLocal is the one-call convenience: StartLocal on a free loopback
// port + Wait.
func RunLocal(ctx context.Context, copts CoordinatorOptions, n int, wopts WorkerOptions) ([]evalmc.SchemeResult, *Coordinator, error) {
	l, err := StartLocal(ctx, "127.0.0.1:0", copts, n, wopts)
	if err != nil {
		return nil, nil, err
	}
	res, err := l.Wait(ctx)
	return res, l.Coordinator, err
}

// RunWorkers runs n workers built from opts against opts.BaseURL, with
// IDs "<opts.ID>-0" … "<opts.ID>-<n-1>", and blocks until every one has
// returned. exit, when non-nil, hears each worker's Run error as it
// returns. The result joins the errors of workers that failed while
// ctx was still live.
func RunWorkers(ctx context.Context, n int, opts WorkerOptions, exit func(*Worker, error)) error {
	opts.defaults()
	workers := make([]*Worker, n)
	for i := range workers {
		wo := opts
		wo.ID = fmt.Sprintf("%s-%d", opts.ID, i)
		w, err := NewWorker(wo)
		if err != nil {
			return err
		}
		workers[i] = w
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := w.Run(ctx)
			if exit != nil {
				exit(w, err)
			}
			if err != nil && ctx.Err() == nil {
				errs[i] = fmt.Errorf("cluster: worker %s: %w", w.ID(), err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
