package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

// Local is an in-process cluster: a coordinator served over loopback
// HTTP with embedded worker goroutines speaking the real wire protocol.
// It is what `ecceval -workers N` and the scaling benchmark run — the
// same engine as a multi-machine campaignd deployment, minus the
// network between machines.
type Local struct {
	Coordinator *Coordinator
	Workers     []*Worker

	baseURL string
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	// workersGone is closed once every embedded worker has returned.
	workersGone chan struct{}
	errs        []error
	mu          sync.Mutex
}

// StartLocal serves copts's coordinator on a loopback listener and
// starts n embedded workers against it. Callers must Wait (or cancel
// ctx) before reading results.
func StartLocal(ctx context.Context, copts CoordinatorOptions, n int, wopts WorkerOptions) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", n)
	}
	coord, err := NewCoordinator(copts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	l := &Local{
		Coordinator: coord,
		baseURL:     "http://" + ln.Addr().String(),
		cancel:      cancel,
		workersGone: make(chan struct{}),
	}
	srv := httpx.NewServerLimit("", coord.Handler(), MaxFrame)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		if err := httpx.Serve(runCtx, srv, ln, 5*time.Second); err != nil {
			l.recordErr(fmt.Errorf("cluster: loopback server: %w", err))
		}
	}()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		coord.Run(runCtx)
	}()
	for i := 0; i < n; i++ {
		wo := wopts
		if wo.ID == "" {
			wo.ID = fmt.Sprintf("local-%d", i)
		} else {
			wo.ID = fmt.Sprintf("%s-%d", wo.ID, i)
		}
		wo.BaseURL = l.baseURL
		w, err := NewWorker(wo)
		if err != nil {
			cancel()
			l.wg.Wait()
			return nil, err
		}
		l.Workers = append(l.Workers, w)
	}
	var workers sync.WaitGroup
	for _, w := range l.Workers {
		w := w
		workers.Add(1)
		go func() {
			defer workers.Done()
			if err := w.Run(runCtx); err != nil && runCtx.Err() == nil {
				l.recordErr(fmt.Errorf("cluster: worker %s: %w", w.ID(), err))
			}
		}()
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		workers.Wait()
		close(l.workersGone)
	}()
	return l, nil
}

func (l *Local) recordErr(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.errs = append(l.errs, err)
}

// Wait blocks until the campaign completes, every embedded worker has
// exited, or ctx is cancelled, then tears the loopback server and
// workers down and returns the merged results. When the workers are
// all gone before the campaign is done (say, every one was evicted),
// it returns their recorded errors joined.
func (l *Local) Wait(ctx context.Context) ([]evalmc.SchemeResult, error) {
	select {
	case <-l.Coordinator.Done():
	case <-l.workersGone:
	case <-ctx.Done():
	}
	l.cancel()
	l.wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.Coordinator.Err(); err != nil {
		return nil, err
	}
	select {
	case <-l.Coordinator.Done():
	default:
		// Errors recorded after a complete merge are harmless (a worker
		// evicted while others finished); here nothing is left to run.
		l.mu.Lock()
		defer l.mu.Unlock()
		errs := append([]error{errors.New("cluster: every worker exited before the campaign completed")}, l.errs...)
		return nil, errors.Join(errs...)
	}
	return l.Coordinator.Results()
}

// RunLocal is the one-call convenience: StartLocal + Wait.
func RunLocal(ctx context.Context, copts CoordinatorOptions, n int, wopts WorkerOptions) ([]evalmc.SchemeResult, *Coordinator, error) {
	l, err := StartLocal(ctx, copts, n, wopts)
	if err != nil {
		return nil, nil, err
	}
	res, err := l.Wait(ctx)
	return res, l.Coordinator, err
}
