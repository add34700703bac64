package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/serve"
)

// Serve traffic: small clean-dominated bursts (about one 1-bit error per
// 256 entries) for one binary and one symbol scheme.
const (
	reqEntries = 32
	poolReqs   = 128
	// serveClients is the closed-loop client count: each waits for its
	// reply before sending again. It matches the two CPUs the benchmark
	// is tuned on, so the load does not outnumber the cores.
	serveClients = 2
	// serveRate is the open-loop offered rate in requests per second.
	// On a 2-CPU machine two closed-loop clients reach about 1700 req/s,
	// held back by the micro-batcher's wait for more work, and four
	// about 3300 req/s, so the service is far from saturated.
	serveRate = 1000
	// serveLimit is the open-loop latency limit; a later reply fails.
	// It only catches a service that stops answering: host scheduling
	// alone delays a few replies per thousand past 10 ms on a shared
	// 2-CPU machine, and latency itself is what unit_p50_ms measures.
	serveLimit = time.Second
	// serveWindow is the closed-loop throughput window; work_per_s is
	// the median window rate.
	serveWindow = 250 * time.Millisecond
	// latencyWindow groups open-loop latencies; the reported p50 and p90
	// are medians over windows.
	latencyWindow = time.Second
	// overrunLag is how late the generator may send before the send
	// counts as an overrun.
	overrunLag = time.Millisecond
)

var serveSchemes = []string{"DuetECC", "SSC-DSD+"}

// servedReq is one request with the replies scalar DecodeWire gives.
type servedReq struct {
	scheme  string
	entries []bitvec.V288
	want    []core.WireResult
}

type serveWL struct {
	svc *serve.Service
	dec []*timedDecoder
	rec atomic.Pointer[recorder]
}

func (w *serveWL) close() {
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
}

// setup builds the schemes and the service and warms both with one
// pool of requests. A traced run installs the timing decoder.
func (w *serveWL) setup(traced bool) error {
	var schemes []core.Scheme
	for _, n := range serveSchemes {
		schemes = append(schemes, mustScheme(n))
	}
	cfg := serve.Config{Schemes: schemes, Registry: obs.NewRegistry()}
	w.dec = nil
	if traced {
		var mu sync.Mutex
		cfg.DecoderFor = func(s core.Scheme) core.BatchDecoder {
			d := &timedDecoder{bd: core.AsBatchDecoder(s), rec: &w.rec}
			mu.Lock()
			w.dec = append(w.dec, d)
			mu.Unlock()
			return d
		}
	}
	svc, err := serve.New(cfg)
	if err != nil {
		return err
	}
	w.svc = svc
	for _, r := range requestPool(1) {
		if _, err := svc.Decode(context.Background(), r.scheme, r.entries); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// requestPool draws poolReqs requests alternating between the schemes,
// with their scalar-decode oracle replies.
func requestPool(seed int64) []servedReq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]servedReq, poolReqs)
	for i := range out {
		s := mustScheme(serveSchemes[i%len(serveSchemes)])
		entries := cleanDominated(rng, s, reqEntries)
		want := make([]core.WireResult, len(entries))
		for j, e := range entries {
			want[j] = s.DecodeWire(e)
		}
		out[i] = servedReq{scheme: s.Name(), entries: entries, want: want}
	}
	return out
}

func sameReplies(got, want []core.WireResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// serveStats accumulates the client-side timings of one body.
type serveStats struct {
	mu                sync.Mutex
	submitNS, waitNS  time.Duration
	submits, waits    int64
	completions       []time.Time
	attempted, failed int64
	problems          []string
	lat               []float64
	latWin            []int
	lagNS             time.Duration
	lags, overruns    int64
	queueMax          int64
}

// fail counts a failed request. A non-empty format also records an
// output-check failure; an empty one is a request the service did not
// serve in time (shed, expired or late), which is no wrong output.
func (st *serveStats) fail(format string, args ...any) {
	st.mu.Lock()
	st.failed++
	if len(st.problems) < 20 && format != "" {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
	st.mu.Unlock()
}

func (w *serveWL) body(seed int64, d time.Duration, rec *recorder, layer map[string]float64) *bodyResult {
	pool := requestPool(seed)
	w.rec.Store(rec)
	defer w.rec.Store(nil)
	for _, dec := range w.dec {
		dec.reset()
	}
	st := &serveStats{}
	closedStart := time.Now()
	w.closedLoop(pool, d/2, st)
	closedEnd := time.Now()
	w.openLoop(pool, d/2, st)

	res := &bodyResult{attempted: st.attempted, failed: st.failed, problems: st.problems,
		lat: st.lat, latWin: st.latWin}
	var rates []float64
	windows := int(closedEnd.Sub(closedStart) / serveWindow)
	counts := make([]int, windows)
	for _, t := range st.completions {
		if i := int(t.Sub(closedStart) / serveWindow); i < windows {
			counts[i]++
		}
	}
	for _, c := range counts {
		rates = append(rates, float64(c)/serveWindow.Seconds())
	}
	res.workPerS = quantile(rates, 0.5)
	res.work = float64(len(st.completions))
	if rec == nil {
		res.sampleHeap(pool)
		return res
	}
	layer["serve.submit_us"] = float64(st.submitNS.Microseconds()) / float64(max(st.submits, 1))
	layer["serve.wait_us"] = float64(st.waitNS.Microseconds()) / float64(max(st.waits, 1))
	layer["serve.queue_entries_max"] = float64(st.queueMax)
	layer["gen.lag_ms"] = st.lagNS.Seconds() * 1000 / float64(max(st.lags, 1))
	layer["gen.overruns"] = float64(st.overruns)
	layer["serve.open_p90_ms"] = windowedQuantile(st.lat, st.latWin, 0.9)
	var batches, entries int
	for _, dec := range w.dec {
		dec.mu.Lock()
		batches += dec.batches
		entries += dec.entries
		dec.mu.Unlock()
	}
	if batches > 0 {
		layer["serve.decode_ns_per_entry"] = rec.meanNS("serve.decode_batch") * float64(batches) / float64(entries)
		mean := float64(entries) / float64(batches)
		layer["serve.batch_entries_mean"] = mean
		layer["serve.batch_fill"] = mean / 256 // serve's default MaxBatch
	}
	return res
}

// request submits r and waits for its reply, checking it against the
// scalar oracle. It returns the reply time, or false on any failure.
func (w *serveWL) request(r servedReq, st *serveStats) (time.Time, bool) {
	ctx := context.Background()
	t0 := time.Now()
	tk, err := w.svc.Submit(ctx, r.scheme, r.entries)
	t1 := time.Now()
	st.mu.Lock()
	st.attempted++
	st.submitNS += t1.Sub(t0)
	st.submits++
	st.mu.Unlock()
	if err != nil {
		st.failErr(r.scheme, err)
		return t1, false
	}
	rep, err := tk.Wait(ctx)
	t2 := time.Now()
	st.mu.Lock()
	st.waitNS += t2.Sub(t1)
	st.waits++
	st.mu.Unlock()
	if err != nil {
		st.failErr(r.scheme, err)
		return t2, false
	}
	if !sameReplies(rep.Results, r.want) {
		st.fail("%s: reply differs from scalar DecodeWire", r.scheme)
		return t2, false
	}
	return t2, true
}

// failErr counts a request that ended in err: a shed or an expiry only
// fails the request, any other error also fails the output check.
func (st *serveStats) failErr(scheme string, err error) {
	if serve.IsShed(err) || errors.Is(err, context.DeadlineExceeded) {
		st.fail("")
		return
	}
	st.fail("%s: %v", scheme, err)
}

func (w *serveWL) closedLoop(pool []servedReq, d time.Duration, st *serveStats) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var done []time.Time
			for i := c; time.Now().Before(end); i += serveClients {
				if t, ok := w.request(pool[i%len(pool)], st); ok {
					done = append(done, t)
				}
			}
			st.mu.Lock()
			st.completions = append(st.completions, done...)
			st.mu.Unlock()
		}(c)
	}
	wg.Wait()
}

// openLoop offers serveRate requests per second for d. Latency runs
// from each request's intended send time, so a stall in the service or
// the generator shows in every request it delays.
func (w *serveWL) openLoop(pool []servedReq, d time.Duration, st *serveStats) {
	type inflight struct {
		tk  serve.Ticket
		due time.Time
		r   servedReq
	}
	total := int(d.Seconds() * serveRate)
	// One waiter per scheme; each channel holds the whole phase so the
	// generator never blocks on a waiter and its send times stay true.
	chans := map[string]chan inflight{}
	start := time.Now()
	var wg sync.WaitGroup
	for _, name := range serveSchemes {
		ch := make(chan inflight, total)
		chans[mustScheme(name).Name()] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range ch {
				rep, err := f.tk.Wait(context.Background())
				now := time.Now()
				switch {
				case err != nil:
					st.failErr(f.r.scheme, err)
				case !sameReplies(rep.Results, f.r.want):
					st.fail("%s: reply differs from scalar DecodeWire", f.r.scheme)
				default:
					lat := now.Sub(f.due)
					st.mu.Lock()
					st.lat = append(st.lat, float64(lat.Microseconds())/1000)
					st.latWin = append(st.latWin, int(f.due.Sub(start)/latencyWindow))
					st.mu.Unlock()
					if lat > serveLimit {
						st.fail("")
					}
				}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / serveRate)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r := pool[i%len(pool)]
		now := time.Now()
		tk, err := w.svc.Submit(context.Background(), r.scheme, r.entries)
		var queued int64
		for _, s := range w.svc.Status() {
			queued = max(queued, s.QueuedEntries)
		}
		st.mu.Lock()
		st.attempted++
		st.lagNS += now.Sub(due)
		st.lags++
		if now.Sub(due) > overrunLag {
			st.overruns++
		}
		st.queueMax = max(st.queueMax, queued)
		st.mu.Unlock()
		if err != nil {
			st.failErr(r.scheme, err)
			continue
		}
		chans[r.scheme] <- inflight{tk, due, r}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// reference digests the service's replies to a fixed request pool.
func (w *serveWL) reference(seed int64) (string, error) {
	var replies [][]core.WireResult
	for _, r := range requestPool(seed) {
		rep, err := w.svc.Decode(context.Background(), r.scheme, r.entries)
		if err != nil {
			return "", err
		}
		replies = append(replies, rep.Results)
	}
	return digest(replies)
}

func (w *serveWL) probes(seed int64, rec *recorder, layer map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	probeTranspose(rng, rec, layer)
	probeBatch(rng, rec, layer, "duet", "sscdsd")
}
