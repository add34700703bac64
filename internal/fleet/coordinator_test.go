package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/obs"
)

func report(node string, seq uint64, at float64, events ...xid.Event) ReportRequest {
	return ReportRequest{NodeID: node, Seq: seq, AtHours: at, Health: "ok", Events: events}
}

func due(node string, at float64, row int64) xid.Event {
	return xid.Event{Node: node, Code: xid.DoubleBitECC, AtHours: at, Row: row}
}

func TestCoordinatorIngestAndRank(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	if _, err := c.Report(report("quiet", 1, 10)); err != nil {
		t.Fatal(err)
	}
	// One DUE: enough to rank first, below the default drain threshold.
	resp, err := c.Report(report("noisy", 1, 10, due("noisy", 9, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Duplicate {
		t.Errorf("ingest response = %+v", resp)
	}
	f := c.Fleet(10)
	if f.Total != 2 || f.Online != 2 {
		t.Errorf("fleet counts = %+v", f)
	}
	if len(f.Ranked) == 0 || f.Ranked[0].ID != "noisy" {
		t.Fatalf("ranked[0] = %+v, want noisy first", f.Ranked)
	}
	if f.Ranked[0].Score <= f.Ranked[1].Score {
		t.Errorf("noisy score %v !> quiet score %v", f.Ranked[0].Score, f.Ranked[1].Score)
	}
	if f.Ranked[0].Window["48"] != 1 {
		t.Errorf("noisy window = %v, want 1 Xid 48", f.Ranked[0].Window)
	}
}

func TestCoordinatorReplayIdempotent(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	first := report("n1", 5, 10, due("n1", 9, 1))
	if _, err := c.Report(first); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Report(first) // retried frame, same seq
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate || resp.Accepted != 0 {
		t.Errorf("replay response = %+v, want duplicate/0 accepted", resp)
	}
	if got := c.Fleet(1).Ranked[0].Events; got != 1 {
		t.Errorf("events after replay = %d, want 1 (no double ingest)", got)
	}
	// Older seq is also a replay.
	if resp, _ := c.Report(report("n1", 3, 11)); !resp.Duplicate {
		t.Error("stale seq not flagged as duplicate")
	}
}

func TestCoordinatorLeaseExpiry(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseHours: 10})
	if _, err := c.Report(report("gone", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(report("alive", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Time advances via the live node's reports; "gone" stays silent and
	// the amortized sweep expires it.
	for seq, at := uint64(2), 5.0; at <= 30; seq, at = seq+1, at+5 {
		if _, err := c.Report(report("alive", seq, at)); err != nil {
			t.Fatal(err)
		}
	}
	f := c.Fleet(10)
	if f.Offline != 1 || f.Online != 1 {
		t.Errorf("after lease expiry: %+v", f)
	}
	// A late report brings the node back online.
	if _, err := c.Report(report("gone", 2, 31)); err != nil {
		t.Fatal(err)
	}
	if f := c.Fleet(10); f.Online != 2 || f.Offline != 0 {
		t.Errorf("after return: %+v", f)
	}
}

func TestCoordinatorPolicyDrainAndStrikes(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		Policy: Policy{
			Weights:     map[int]float64{xid.DoubleBitECC: 25},
			DrainScore:  40,
			RetireScore: 1e9, // only the strikes rule can retire
			MaxDrains:   2,
		},
		WindowHours: 4,
	})
	at := 1.0
	seq := uint64(1)
	drainOnce := func() {
		t.Helper()
		// Two DUEs in-window cross DrainScore.
		resp, err := c.Report(report("bad", seq, at, due("bad", at-0.5, 1), due("bad", at-0.25, 2)))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if resp.Command != CommandDrain {
			t.Fatalf("strike %d: command = %q, want drain (score path)", seq, resp.Command)
		}
		// Repair: the node reports again later with a clean window.
		at += 24
		resp, err = c.Report(report("bad", seq, at))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if resp.Command != "" {
			t.Fatalf("returned node still commanded %q", resp.Command)
		}
		at += 1
	}
	drainOnce()
	drainOnce()
	// Third strike: MaxDrains used up, escalate to retire.
	resp, err := c.Report(report("bad", seq, at, due("bad", at-0.5, 1), due("bad", at-0.25, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Fatalf("third strike command = %q, want retire", resp.Command)
	}
	// Retirement is terminal: later reports keep the retire command.
	resp, err = c.Report(report("bad", seq+1, at+24))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Errorf("retired node re-admitted: command %q", resp.Command)
	}
	if f := c.Fleet(1); f.Retired != 1 {
		t.Errorf("fleet retired count = %d", f.Retired)
	}
}

func TestCoordinatorFollowsAgentRecommendation(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	req := report("sick", 1, 5)
	req.Health = "critical"
	req.Recommend = xid.RemedRetire.String()
	resp, err := c.Report(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Errorf("command = %q, want retire (FollowAgent)", resp.Command)
	}
}

func TestCoordinatorNodeTableBounded(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{MaxNodes: 2})
	for i := 0; i < 2; i++ {
		if _, err := c.Report(report(fmt.Sprintf("n%d", i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Report(report("n2", 1, 1)); err == nil {
		t.Fatal("third node accepted past MaxNodes=2")
	}
	// Known nodes still report fine.
	if _, err := c.Report(report("n0", 2, 2)); err != nil {
		t.Errorf("existing node rejected: %v", err)
	}
}

func TestCoordinatorEventRings(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{EventRing: 2, FleetRing: 3})
	var events []xid.Event
	for i := 0; i < 5; i++ {
		events = append(events, due("n1", float64(i), int64(i)))
	}
	if _, err := c.Report(ReportRequest{NodeID: "n1", Seq: 1, AtHours: 5, Health: "ok", Events: events}); err != nil {
		t.Fatal(err)
	}
	per := c.Events("n1", 0, 0)
	if len(per.Events) != 2 || per.Events[1].Row != 4 {
		t.Errorf("per-node ring = %+v, want last 2 events", per.Events)
	}
	all := c.Events("", 0, 0)
	if len(all.Events) != 3 || all.Events[2].Row != 4 {
		t.Errorf("fleet ring = %+v, want last 3 events", all.Events)
	}
	if got := c.Events("", xid.ContainedECC, 0); len(got.Events) != 0 {
		t.Errorf("xid filter returned %+v", got.Events)
	}
	if got := c.Events("unknown-node", 0, 0); len(got.Events) != 0 {
		t.Errorf("unknown node returned %+v", got.Events)
	}
}

func TestCoordinatorHTTPSurface(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 5*time.Second)
	ctx := context.Background()

	resp, err := client.Report(ctx, report("n1", 1, 3, due("n1", 2, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Version != ProtocolVersion {
		t.Errorf("wire report response = %+v", resp)
	}
	f, err := client.Fleet(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total != 1 || len(f.Ranked) != 1 || f.Ranked[0].ID != "n1" {
		t.Errorf("wire fleet response = %+v", f)
	}

	// Malformed frames come back as errors, not panics.
	if _, err := client.Report(ctx, report("", 1, 1)); err == nil {
		t.Error("invalid report accepted over the wire")
	}

	// /metrics includes the fleet families; /healthz answers.
	get := func(path string) string {
		t.Helper()
		r, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, readAll(t, r.Body)); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	metrics := get("/metrics")
	for _, fam := range []string{"fleet_nodes{", "fleet_events_total{", "fleet_reports_total", "fleet_ingest_seconds_bucket"} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	if hz := get("/healthz"); !strings.Contains(hz, `"status":"ok"`) {
		t.Errorf("/healthz = %s", hz)
	}
}

func readAll(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

func TestCoordinatorMetricsGaugesTrackStatus(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{Policy: Policy{
		Weights:     map[int]float64{xid.OffTheBus: 1000},
		DrainScore:  40,
		RetireScore: 200,
		FollowAgent: false,
		MaxDrains:   3,
	}})
	if _, err := c.Report(report("ok", 1, 1)); err != nil {
		t.Fatal(err)
	}
	crash := xid.Event{Node: "dead", Code: xid.OffTheBus, AtHours: 1, Row: -1}
	if _, err := c.Report(report("dead", 1, 1, crash)); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default.Snapshot()
	got := map[string]float64{}
	for _, fam := range snap.Families {
		if fam.Name != "fleet_nodes" {
			continue
		}
		for _, s := range fam.Series {
			got[s.Labels["status"]] = s.Value
		}
	}
	// Gauges are process-wide (other tests share the registry), so only
	// sanity-check consistency with this coordinator's own view.
	f := c.Fleet(0)
	if f.Online < 1 || f.Retired < 1 {
		t.Fatalf("fleet view = %+v, want >=1 online and retired", f)
	}
	if len(got) == 0 {
		t.Fatal("fleet_nodes gauge family missing from snapshot")
	}
}

// TestCoordinatorQueryParams: unparseable integers are a 400, not a
// silently unfiltered answer, and an oversized event limit clamps to
// MaxTopNodes like top does rather than falling back to the default.
func TestCoordinatorQueryParams(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	var events []xid.Event
	for i := 0; i < 100; i++ {
		events = append(events, xid.Event{Node: "n1", Code: xid.ContainedECC, AtHours: 1, Row: int64(i)})
	}
	if _, err := c.Report(report("n1", 1, 1, events...)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path   string
		code   int
		events int // -1: not an events query
	}{
		{"/v1/fleet?top=2", 200, -1},
		{"/v1/fleet?top=abc", 400, -1},
		{"/v1/fleet/events", 200, 64},
		{"/v1/fleet/events?limit=5000", 200, 100},
		{"/v1/fleet/events?xid=94&limit=10", 200, 10},
		{"/v1/fleet/events?xid=48", 200, 0},
		{"/v1/fleet/events?xid=abc", 400, -1},
		{"/v1/fleet/events?limit=1.5", 400, -1},
	} {
		r, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, r.Body)
		r.Body.Close()
		if r.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, r.StatusCode, tc.code)
			continue
		}
		if tc.events < 0 {
			continue
		}
		var er EventsResponse
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if len(er.Events) != tc.events {
			t.Errorf("GET %s returned %d events, want %d", tc.path, len(er.Events), tc.events)
		}
	}
}
