package fleet

import (
	"context"
	"sort"
	"time"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
)

// The probe's health check is the paper's §4 DRAM microbenchmark cut
// short (4 write passes x 5 reads rather than 10 x 20) on a V100 device
// in a beamline with a 5 s mean time to soft-error event, repeated
// every ProbeInterval of wall time. Each check counts as one simulated
// hour of the agent's clock, so the agent window, the coordinator lease
// and the storm rate are all measured in checks.
const (
	probeWritePasses   = 4
	probeReadsPerWrite = 5
	probeMTTE          = 5.0
	// ProbeInterval is the wall time between a probe's checks.
	ProbeInterval = 10 * time.Second
)

// Probe is a device-backed event source for an Agent. Each check runs
// the microbenchmark against a simulated beam-exposed device, splits
// what it logged into one-shot soft errors and weak-cell (displacement
// damage) entries with classify.Analyze, and scrubs the weak entries
// through the resilient gpusim read path, whose retirement table
// remaps repeat-offender rows onto spares. Every error the node's
// SEC-DED would have seen goes to ObserveCorrected or ObserveDUE, so
// the agent's own thresholds judge the device, and the reports leave
// through an Outbox like any remote agent's.
//
// A probe stops checking once the coordinator drains or retires its
// node; a probe that stops reporting for any other reason goes offline
// when its lease expires. Probes are not safe for concurrent use.
type Probe struct {
	agent *Agent
	box   *Outbox
	dev   *dram.Device
	beam  *beam.Beam
	gpu   *gpusim.GPU
	// clean is the codeword of all-zero data: XORing a logged error
	// mask onto it gives the wire the SEC-DED decoder would have read.
	clean   bitvec.V288
	seed    int64
	clock   float64 // device time, seconds
	hours   int     // checks run
	seq     uint64
	stopped bool
}

// NewProbe builds a probe for node reporting to rep. The device's row
// retirement uses opts.Retirement, the same policy the agent counts
// with.
func NewProbe(node string, seed int64, rep Reporter, opts AgentOptions) *Probe {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	gpu := gpusim.Wrap(dev, core.NewSECDED(false, false))
	gpu.EnableResilience(gpusim.ResilienceOptions{Retirement: opts.Retirement, Seed: seed + 1})
	p := &Probe{
		agent: NewAgent(node, opts),
		dev:   dev,
		beam:  beam.New(dev, beam.Config{Seed: seed, SEURatePerFlux: 1 / (probeMTTE * beam.ChipIRFlux)}),
		gpu:   gpu,
		clean: gpu.Scheme.Encode([bitvec.DataBytes]byte{}),
		seed:  seed,
	}
	p.box = NewOutbox(rep, OutboxOptions{Seed: seed + 2, OnAck: func(_ ReportRequest, resp ReportResponse) {
		if resp.Command != "" {
			p.stopped = true
		}
	}})
	return p
}

// Check runs one health check, advancing the probe one simulated hour,
// and reports what it found. It is a no-op once the coordinator has
// drained or retired the node. Only context errors are returned.
func (p *Probe) Check(ctx context.Context) error {
	if p.stopped {
		return nil
	}
	p.hours++
	at := float64(p.hours)
	span := obs.DefaultTracer.Start("fleet.probe.check")
	span.SetAttr("node", p.agent.Node())

	// The all-zero pattern, inverted on odd write passes, leaves every
	// cell at 1 after the last pass, so a weak cell leaking to 0 is
	// still visible when the scrub reads it.
	log := microbench.Run(microbench.Config{
		Device:        p.dev,
		Beam:          p.beam,
		WritePasses:   probeWritePasses,
		ReadsPerWrite: probeReadsPerWrite,
		StartTime:     p.clock,
		Seed:          p.seed + int64(p.hours)*1_000_003,
		DiscardProb:   -1, // a health check must not discard itself
		Span:          span,
		Ctx:           ctx,
	})
	if log.Cancelled {
		span.Finish()
		return ctx.Err()
	}
	p.clock = log.EndTime
	an := classify.Analyze([]*microbench.Log{log}, classify.Options{})
	for _, ev := range an.Events {
		for _, ee := range ev.Entries {
			p.observe(at, ee.Entry, p.gpu.Scheme.Decode(p.clean.Xor(ee.Mask)).Status)
		}
	}
	p.scrub(at, an.DamagedEntries, span)
	span.Finish()

	for _, req := range p.agent.Frames(&p.seq, at) {
		p.box.Enqueue(req)
	}
	return p.box.Flush(ctx, at)
}

// Run checks immediately and then every ProbeInterval until ctx is
// done or the coordinator drains or retires the node.
func (p *Probe) Run(ctx context.Context) {
	tick := time.NewTicker(ProbeInterval)
	defer tick.Stop()
	for {
		// Check fails only when ctx is done.
		if p.Check(ctx) != nil || p.stopped {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (p *Probe) observe(at float64, entry int64, st ecc.Status) {
	row := p.dev.Cfg.RowKey(entry)
	switch st {
	case ecc.Corrected:
		p.agent.ObserveCorrected(at, row)
	case ecc.Detected:
		p.agent.ObserveDUE(at, row, false)
	}
}

// scrub reads each damaged entry through the resilient read path until
// its row retires or the retirement threshold's worth of reads is
// spent. A retired row is remapped onto a pristine spare, which deletes
// its weak cells from the device.
func (p *Probe) scrub(at float64, damaged map[int64]bool, span *obs.Span) {
	if len(damaged) == 0 {
		return
	}
	ss := span.Child("scrub")
	defer ss.Finish()
	entries := make([]int64, 0, len(damaged))
	for e := range damaged {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	rt := p.gpu.Retirement()
	p.gpu.SetClock(p.clock)
	for _, e := range entries {
		row := p.dev.Cfg.RowKey(e)
		for i := 0; i < rt.Policy().ErrorThreshold && !rt.Retired(row); i++ {
			p.observe(at, e, p.gpu.Read(e).Status)
		}
	}
	p.clock = p.gpu.Clock() // retry backoff and stalls advance device time
}
