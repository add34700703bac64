package obs

import (
	"strings"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making span
// durations and ordering deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestTracer() (*Tracer, *Registry) {
	r := NewRegistry()
	tr := NewTracer(r)
	tr.SetClock((&fakeClock{t: time.Unix(0, 0), step: time.Millisecond}).now)
	tr.SetLimits(64, 8192)
	return tr, r
}

// TestDefaultTracerRetainsNoTrees checks that span trees are opt-in: by
// default finished spans feed only the phase aggregates, and SetLimits
// turns tree retention on.
func TestDefaultTracerRetainsNoTrees(t *testing.T) {
	run := func() {
		s := DefaultTracer.Start("retention_probe")
		s.Child("leaf").Finish()
		s.Finish()
	}
	run()
	if roots := DefaultTracer.Roots(); len(roots) != 0 {
		t.Fatalf("DefaultTracer retained %d trees by default", len(roots))
	}
	count := 0
	for _, p := range DefaultTracer.Phases() {
		if p.Name == "leaf" {
			count = p.Count
		}
	}
	if count != 1 {
		t.Fatalf("leaf phase count = %d, want 1 (aggregates must not depend on retention)", count)
	}

	DefaultTracer.SetLimits(4, 64)
	defer DefaultTracer.SetLimits(0, 0)
	run()
	roots := DefaultTracer.Roots()
	if len(roots) != 1 || roots[0].Name != "retention_probe" || len(roots[0].Children()) != 1 {
		t.Fatalf("after SetLimits: roots = %v", roots)
	}
}

// TestSpanTreeOrdering verifies that a campaign-shaped span tree retains
// children in start order with correct nesting and durations.
func TestSpanTreeOrdering(t *testing.T) {
	tr, _ := newTestTracer()

	campaign := tr.Start("campaign")
	setup := campaign.Child("device_setup")
	setup.Finish()
	for i := 0; i < 3; i++ {
		run := campaign.Child("run")
		w := run.Child("write_pass")
		w.Finish()
		rd := run.Child("read_scan")
		rd.Finish()
		run.Finish()
	}
	campaign.Finish()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "campaign" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	wantOrder := []string{"device_setup", "run", "run", "run"}
	if len(kids) != len(wantOrder) {
		t.Fatalf("children = %d, want %d", len(kids), len(wantOrder))
	}
	for i, k := range kids {
		if k.Name != wantOrder[i] {
			t.Errorf("child[%d] = %q, want %q", i, k.Name, wantOrder[i])
		}
	}
	grand := kids[1].Children()
	if len(grand) != 2 || grand[0].Name != "write_pass" || grand[1].Name != "read_scan" {
		t.Errorf("run children wrong: %v", grand)
	}
	// Each run wraps 2 children; with a 1ms-per-reading clock its span
	// covers strictly more readings than each child's.
	if kids[1].Duration() <= grand[0].Duration() {
		t.Errorf("run duration %v not greater than child duration %v",
			kids[1].Duration(), grand[0].Duration())
	}

	phases := tr.Phases()
	byName := map[string]PhaseStat{}
	for _, p := range phases {
		byName[p.Name] = p
	}
	if byName["run"].Count != 3 || byName["write_pass"].Count != 3 {
		t.Errorf("phase counts wrong: %+v", byName)
	}
	if byName["campaign"].Total <= byName["run"].Total/3 {
		t.Errorf("campaign total %v suspiciously small", byName["campaign"].Total)
	}
}

func TestSpanTreeRendering(t *testing.T) {
	tr, _ := newTestTracer()
	root := tr.Start("campaign")
	root.SetAttr("runs", "2")
	c := root.Child("run")
	c.Finish()
	root.Finish()

	var b strings.Builder
	if err := root.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("tree lines = %d, want 2:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "campaign (") || !strings.Contains(lines[0], "runs=2") {
		t.Errorf("root line wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  run (") {
		t.Errorf("child line not indented: %q", lines[1])
	}
}

// TestSpanRetentionCaps checks that the caps bound memory while the
// aggregate statistics keep counting.
func TestSpanRetentionCaps(t *testing.T) {
	tr, _ := newTestTracer()
	tr.SetLimits(2, 4)
	for i := 0; i < 5; i++ {
		s := tr.Start("root")
		for j := 0; j < 3; j++ {
			c := s.Child("leaf")
			c.Finish()
		}
		s.Finish()
	}
	if got := len(tr.Roots()); got != 2 {
		t.Errorf("retained roots = %d, want 2", got)
	}
	if tr.Dropped() == 0 {
		t.Errorf("expected dropped spans past the cap")
	}
	for _, p := range tr.Phases() {
		if p.Name == "leaf" && p.Count != 15 {
			t.Errorf("leaf phase count = %d, want 15 (aggregation must ignore retention)", p.Count)
		}
	}
}

// TestEvictedRootReleasesBudget checks that an evicted root which keeps
// running does not charge its later children to the span budget: with
// SetLimits(1, 10), root a is evicted by root b, a opens 8 children, then
// three more roots open one child each. The retained count must equal the
// spans actually kept, and the last root's child must be kept.
func TestEvictedRootReleasesBudget(t *testing.T) {
	tr, _ := newTestTracer()
	tr.SetLimits(1, 10)
	a := tr.Start("a")
	tr.Start("b").Finish()
	for i := 0; i < 8; i++ {
		a.Child("late").Finish()
	}
	a.Finish()
	var last *Span
	for i := 0; i < 3; i++ {
		last = tr.Start("root")
		last.Child("leaf").Finish()
		last.Finish()
	}
	kept := 0
	var count func(s *Span)
	count = func(s *Span) {
		kept++
		for _, c := range s.Children() {
			count(c)
		}
	}
	roots := tr.Roots()
	for _, r := range roots {
		count(r)
	}
	tr.mu.Lock()
	retained := tr.retained
	tr.mu.Unlock()
	if retained != kept {
		t.Fatalf("retained = %d, but the kept trees hold %d spans", retained, kept)
	}
	if len(roots) != 1 || roots[0] != last || len(last.Children()) != 1 {
		t.Fatalf("the newest root and its child must be kept; roots = %d", len(roots))
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	s.SetAttr("k", "v")
	s.Finish()
	if d := s.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
}

func TestSpanDurationHistogramRecorded(t *testing.T) {
	tr, r := newTestTracer()
	s := tr.Start("phase")
	s.Finish()
	h := r.Histogram("obs_span_duration_seconds", "", nil, "span").With("phase")
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
}
