package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/obs"
)

func newProbes(n int, seed int64, rep Reporter) []*Probe {
	out := make([]*Probe, n)
	for i := range out {
		out[i] = NewProbe(fmt.Sprintf("probe-%d", i), seed+int64(i)*7919, rep, AgentOptions{})
	}
	return out
}

func mustCheck(t *testing.T, p *Probe) {
	t.Helper()
	if err := p.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func nodeSummary(t *testing.T, c *Coordinator, id string) NodeSummary {
	t.Helper()
	for _, n := range c.Fleet(MaxTopNodes).Ranked {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("node %s not in the fleet", id)
	return NodeSummary{}
}

// irradiate exposes the probe's device to frac saturation fluences of
// beam, seeding displacement-damaged weak cells, then takes it out of
// the beam so its checks see the damage alone.
func irradiate(p *Probe, frac float64) {
	dur := frac * p.beam.Damage.SaturationFluence / p.beam.Flux
	p.beam.Expose(p.clock, p.clock+dur, 0)
	p.clock += dur
	p.beam = nil
}

// plantWeakRows adds cells weak cells spread over the rows holding
// entries anchor..anchor+rows-1 (adjacent entries sit in different
// rows), each leaking to 0 within 1 ms.
func plantWeakRows(p *Probe, anchor int64, rows, cells int) {
	for i := 0; i < cells; i++ {
		entries := p.dev.Cfg.RowEntries(anchor + int64(i%rows))
		p.dev.AddWeakCell(entries[(i/rows)%len(entries)], dram.WeakCell{Bit: (i % 4) * 72, Retention: 0.001, LeakTo: 0})
	}
}

// TestProbeCheckReportsToCoordinator: one check per probe advances
// each device and puts every probe in the fleet at simulated hour 1.
func TestProbeCheckReportsToCoordinator(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	probes := newProbes(2, 7, c.Loopback())
	for _, p := range probes {
		mustCheck(t, p)
	}
	f := c.Fleet(0)
	if f.Total != 2 || f.Online != 2 || f.SimHours != 1 {
		t.Fatalf("fleet = %+v, want 2 online probes at hour 1", f)
	}
	for _, p := range probes {
		if p.clock <= 0 || p.beam.Fluence() <= 0 {
			t.Errorf("%s: device clock %v, fluence %v did not advance", p.agent.Node(), p.clock, p.beam.Fluence())
		}
		if n := nodeSummary(t, c, p.agent.Node()); n.LastSeenHours != 1 || n.Status != "online" {
			t.Errorf("%s summary = %+v", p.agent.Node(), n)
		}
	}
}

// TestProbeEndpoints drives probes over the wire and reads their state
// back through /v1/fleet, /v1/fleet/events and /metrics.
func TestProbeEndpoints(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	probes := newProbes(2, 7, NewClient(srv.URL, 5*time.Second))
	plantWeakRows(probes[0], 4096, 1, 3)
	for _, p := range probes {
		mustCheck(t, p)
	}

	get := func(path string, v any) string {
		t.Helper()
		r, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		body := readAll(t, r.Body)
		if r.StatusCode != 200 {
			t.Fatalf("GET %s = %d: %s", path, r.StatusCode, body)
		}
		if v != nil {
			if err := json.Unmarshal([]byte(body), v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return body
	}
	var f FleetResponse
	get("/v1/fleet?top=2", &f)
	if f.Total != 2 || len(f.Ranked) != 2 || f.Ranked[0].ID != "probe-0" {
		t.Fatalf("/v1/fleet = %+v, want the damaged probe-0 ranked first", f)
	}
	var ev EventsResponse
	get("/v1/fleet/events?node=probe-0&xid=63", &ev)
	if len(ev.Events) == 0 {
		t.Fatal("/v1/fleet/events has no row-remap event for the scrubbed probe")
	}
	metrics := get("/metrics", nil)
	for _, fam := range []string{`fleet_events_total{xid="63"}`, "resilience_rows_retired_total"} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	found := false
	for _, ph := range obs.DefaultTracer.Phases() {
		found = found || ph.Name == "fleet.probe.check"
	}
	if !found {
		t.Error("no fleet.probe.check span recorded")
	}
}

// TestProbeDamageDegradesNode: a lightly irradiated device's weak
// cells reach the agent as corrected errors and row remaps, so the
// node reports itself degraded but stays in service.
func TestProbeDamageDegradesNode(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	p := newProbes(1, 3, c.Loopback())[0]
	irradiate(p, 0.01)
	weak := p.dev.WeakCellCount()
	mustCheck(t, p)
	n := nodeSummary(t, c, "probe-0")
	if n.Health != "degraded" || n.Status != "online" {
		t.Fatalf("damaged probe = %+v, want degraded and online", n)
	}
	if n.Window[fmt.Sprint(xid.ContainedECC)] == 0 || n.Window[fmt.Sprint(xid.RowRemapRecorded)] == 0 {
		t.Errorf("window = %v, want corrected errors and row remaps", n.Window)
	}
	if got := p.dev.WeakCellCount(); weak == 0 || got >= weak {
		t.Errorf("weak cells %d -> %d: want retirement to remove some", weak, got)
	}
}

// TestProbeFloodIsCritical: a beam flood logs so many multi-bit
// entries that the DUEs they decode to spend the agent's budget, and
// the coordinator removes the node.
func TestProbeFloodIsCritical(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	p := newProbes(1, 11, c.Loopback())[0]
	p.beam = beam.New(p.dev, beam.Config{Seed: 11, SEURatePerFlux: 1 / (0.002 * beam.ChipIRFlux)})
	mustCheck(t, p)
	n := nodeSummary(t, c, "probe-0")
	if n.Health != "critical" || n.Window[fmt.Sprint(xid.DoubleBitECC)] < 4 {
		t.Fatalf("flooded probe = %+v, want critical on DUEs", n)
	}
	if n.Command == "" || !p.stopped {
		t.Errorf("command %q, probe stopped %v: want the node removed", n.Command, p.stopped)
	}
}

// TestProbeStopsCheckingOnceRemoved: heavier damage earns a drain,
// and damage past the spare rows a retirement; either way Run returns
// on its own, without waiting out the check interval, and further
// checks do nothing.
func TestProbeStopsCheckingOnceRemoved(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		cmd  string
	}{{0.05, CommandDrain}, {5, CommandRetire}} {
		c := NewCoordinator(CoordinatorOptions{})
		p := newProbes(1, 3, c.Loopback())[0]
		irradiate(p, tc.frac)
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Run(context.Background())
		}()
		select {
		case <-done:
		case <-time.After(ProbeInterval / 2):
			t.Fatalf("irradiated x%v: Run still running after %s", tc.frac, ProbeInterval/2)
		}
		if cmd := c.Command("probe-0"); cmd != tc.cmd {
			t.Errorf("irradiated x%v: command %q, want %q", tc.frac, cmd, tc.cmd)
		}
		hours := p.hours
		mustCheck(t, p)
		if p.hours != hours || nodeSummary(t, c, "probe-0").LastSeenHours != float64(hours) {
			t.Errorf("irradiated x%v: removed probe kept checking: %d -> %d hours", tc.frac, hours, p.hours)
		}
	}
}

// TestProbeLeaseExpiryOfflinesStuckProbe: a probe whose check never
// returns stops reporting; once the other probe's checks carry the
// fleet clock past the lease, the coordinator marks it offline.
func TestProbeLeaseExpiryOfflinesStuckProbe(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseHours: 12})
	probes := newProbes(2, 5, c.Loopback())
	probes[1].beam = nil    // out of the beam, so the live probe stays healthy
	mustCheck(t, probes[0]) // then stuck: it never reports again
	for i := 0; i < 16; i++ {
		mustCheck(t, probes[1])
	}
	f := c.Fleet(0)
	if f.Online != 1 || f.Offline != 1 {
		t.Fatalf("fleet = %+v, want one online and one offline probe", f)
	}
	if n := nodeSummary(t, c, "probe-0"); n.Status != "offline" {
		t.Errorf("stuck probe status %q, want offline", n.Status)
	}
}

// TestChaosProbeScrubRetiresWeakRows: weak cells planted on one row are
// logged by the check and scrubbed until the row retires, which
// removes the cells from the device and reports Xid 63.
func TestChaosProbeScrubRetiresWeakRows(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	p := newProbes(1, 13, c.Loopback())[0]
	plantWeakRows(p, 4096, 1, 3)
	mustCheck(t, p)
	rt := p.gpu.Retirement()
	if p.gpu.Reads == 0 || rt.RetiredCount() < 1 || rt.SparesLeft() >= 64 {
		t.Fatalf("scrub reads %d, retired %d, spares %d: want a retired row",
			p.gpu.Reads, rt.RetiredCount(), rt.SparesLeft())
	}
	if got := p.dev.WeakCellCount(); got != 0 {
		t.Fatalf("weak cells survived retirement: %d", got)
	}
	row := p.dev.Cfg.RowKey(4096)
	ev := c.Events("probe-0", xid.RowRemapRecorded, 0).Events
	if len(ev) != 1 || ev[0].Row != row {
		t.Fatalf("remap events = %+v, want one for row %d", ev, row)
	}
	mustCheck(t, p)
	if got := p.dev.WeakCellCount(); got != 0 {
		t.Fatalf("weak cells regrew: %d", got)
	}
}

// TestChaosProbeWeakStormsOverWire runs two probes concurrently over
// the wire protocol while weak-cell storms land between checks: the
// storms are scrubbed into retired rows and the remaps reach the
// coordinator.
func TestChaosProbeWeakStormsOverWire(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	probes := newProbes(2, 2021, NewClient(srv.URL, 5*time.Second))
	var wg sync.WaitGroup
	for i, p := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for check := 0; check < 4; check++ {
				if check%2 == 0 {
					plantWeakRows(p, int64((i+1)<<20+check<<8), 3, 120)
				}
				if err := p.Check(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range probes {
		if p.gpu.Reads == 0 || p.gpu.Retirement().RetiredCount() == 0 {
			t.Errorf("%s: %d scrub reads, %d rows retired after two storms",
				p.agent.Node(), p.gpu.Reads, p.gpu.Retirement().RetiredCount())
		}
		if n := nodeSummary(t, c, p.agent.Node()); n.Window[fmt.Sprint(xid.RowRemapRecorded)] == 0 {
			t.Errorf("%s window %v has no row remaps", p.agent.Node(), n.Window)
		}
	}
}

// faultInjector is the scrub path's adversary: every first read attempt
// takes a two-bit transient flip in one beat and a latency stall, and
// every read of deadRow returns dead-bank junk.
type faultInjector struct {
	deadRow int64
	rowKey  func(int64) int64
}

func (f faultInjector) BeforeRead(idx int64, _ float64, attempt int) gpusim.ReadFault {
	if f.rowKey(idx) == f.deadRow {
		return gpusim.ReadFault{Dead: true}
	}
	if attempt > 0 {
		return gpusim.ReadFault{}
	}
	var flip bitvec.V288
	flip = flip.FlipBit(3).FlipBit(9)
	return gpusim.ReadFault{Xor: flip, Stall: 0.005}
}

// TestChaosProbeScrubSurvivesInjectedFaults: transient flips are
// retried away, stalls advance the device clock, and a dead bank's
// reads reach the coordinator as DUEs.
func TestChaosProbeScrubSurvivesInjectedFaults(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	p := newProbes(1, 17, c.Loopback())[0]
	p.gpu.AttachInjector(faultInjector{deadRow: p.dev.Cfg.RowKey(1), rowKey: p.dev.Cfg.RowKey})
	plantWeakRows(p, 0, 2, 6)
	mustCheck(t, p)
	if p.gpu.Retries == 0 || p.gpu.Stalls == 0 {
		t.Fatalf("retries %d, stalls %d: want both", p.gpu.Retries, p.gpu.Stalls)
	}
	if !p.gpu.Retirement().Retired(p.dev.Cfg.RowKey(0)) {
		t.Error("weak row behind transient faults not retired")
	}
	n := nodeSummary(t, c, "probe-0")
	if n.Window[fmt.Sprint(xid.DoubleBitECC)] == 0 {
		t.Errorf("window %v has no DUE from the dead bank", n.Window)
	}
}
