package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer produces spans: named, timed phases of a long-running job,
// arranged in per-campaign trees. Finishing a span records its duration
// into an obs_span_duration_seconds histogram on the tracer's registry
// (labeled by span name) and into the phase aggregates, so phase timings
// survive whether or not the trees are retained. A new tracer retains no
// trees; SetLimits opts in.
type Tracer struct {
	durations *HistogramVec

	mu       sync.Mutex
	roots    []*Span
	retained int
	maxRoots int
	maxSpans int
	dropped  int
	phases   map[string]*PhaseStat
	now      func() time.Time
}

// PhaseStat aggregates finished spans sharing one name.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
}

// Mean returns the mean duration of the phase.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// NewTracer builds a tracer recording durations on r.
func NewTracer(r *Registry) *Tracer {
	return &Tracer{
		durations: r.Histogram("obs_span_duration_seconds",
			"Wall-clock duration of finished spans by name.",
			ExpBuckets(1e-6, 4, 16), "span"),
		phases: map[string]*PhaseStat{},
		now:    time.Now,
	}
}

// DefaultTracer records on the Default registry.
var DefaultTracer = NewTracer(Default)

// SetClock replaces the tracer's time source (tests).
func (t *Tracer) SetClock(fn func() time.Time) {
	t.mu.Lock()
	t.now = fn
	t.mu.Unlock()
}

// SetLimits sets the span retention caps: the tracer keeps the maxRoots
// most recent root trees, and at most maxSpans spans in total across them;
// children past that cap are timed but not attached. Zero (the default of
// a new tracer) keeps nothing: with maxRoots <= 0 no tree is built, and
// with maxSpans <= 0 retained roots get no children. Phase aggregates and
// the duration histogram are unaffected by retention. Limits apply to
// spans started after the call.
func (t *Tracer) SetLimits(maxRoots, maxSpans int) {
	t.mu.Lock()
	t.maxRoots, t.maxSpans = maxRoots, maxSpans
	t.mu.Unlock()
}

// Span is one timed phase. Spans are created by Tracer.Start or
// Span.Child and closed with Finish. A nil *Span is a valid no-op
// receiver, so call sites can thread optional spans without nil checks.
type Span struct {
	Name string

	t      *Tracer
	keep   bool // attached to a retained tree; only such spans keep children (guarded by t.mu)
	start  time.Time
	end    time.Time
	attrs  map[string]string
	smu    sync.Mutex
	childs []*Span
}

// Start opens a new root span.
func (t *Tracer) Start(name string) *Span {
	t.mu.Lock()
	s := &Span{Name: name, t: t, start: t.now(), keep: t.maxRoots > 0}
	if s.keep {
		if len(t.roots) >= t.maxRoots {
			// FIFO: the oldest campaign tree ages out, releasing its
			// retention budget to future spans.
			t.retained -= release(t.roots[0])
			t.roots = t.roots[1:]
		}
		t.roots = append(t.roots, s)
		t.retained++
	}
	t.mu.Unlock()
	return s
}

// release detaches an evicted tree from the retention budget: it clears
// keep over s's subtree, so children its still-running spans open later
// are not counted, and returns the subtree size. The caller holds t.mu,
// under which every child is attached, so the subtree cannot grow
// meanwhile.
func release(s *Span) int {
	s.keep = false
	n := 1
	for _, c := range s.childs {
		n += release(c)
	}
	return n
}

// Child opens a sub-span. Children of a retained span are retained in
// start order until the tracer's span cap is reached; past the cap, or
// under an unretained parent, they are still timed (and aggregated) but
// not attached to a tree.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	c := &Span{Name: name, t: t, start: t.now(), keep: s.keep && t.retained < t.maxSpans}
	if c.keep {
		t.retained++
		s.smu.Lock()
		s.childs = append(s.childs, c)
		s.smu.Unlock()
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return c
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.smu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
	s.smu.Unlock()
}

// Finish closes the span and records its duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	s.end = t.now()
	d := s.end.Sub(s.start)
	ps := t.phases[s.Name]
	if ps == nil {
		ps = &PhaseStat{Name: s.Name}
		t.phases[s.Name] = ps
	}
	ps.Count++
	ps.Total += d
	t.mu.Unlock()
	t.durations.With(s.Name).Observe(d.Seconds())
}

// Duration returns the span's duration (zero until finished).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns the retained child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	return append([]*Span(nil), s.childs...)
}

// Roots returns the retained root spans, oldest first.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Dropped returns how many child spans were timed but not retained.
func (t *Tracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Phases returns aggregate statistics of finished spans, sorted by total
// duration descending.
func (t *Tracer) Phases() []PhaseStat {
	t.mu.Lock()
	out := make([]PhaseStat, 0, len(t.phases))
	for _, p := range t.phases {
		out = append(out, *p)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WritePhaseSummary renders the aggregate phase table:
//
//	span                      count   total      mean
func (t *Tracer) WritePhaseSummary(w io.Writer) error {
	phases := t.Phases()
	if len(phases) == 0 {
		_, err := fmt.Fprintln(w, "(no spans recorded)")
		return err
	}
	width := len("span")
	for _, p := range phases {
		if len(p.Name) > width {
			width = len(p.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %7s  %12s  %12s\n", width, "span", "count", "total", "mean"); err != nil {
		return err
	}
	for _, p := range phases {
		if _, err := fmt.Fprintf(w, "%-*s  %7d  %12s  %12s\n",
			width, p.Name, p.Count, p.Total.Round(time.Microsecond), p.Mean().Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTree renders the span tree rooted at s, one span per line with
// indentation, duration, and attributes.
func (s *Span) WriteTree(w io.Writer) error {
	return s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) error {
	if s == nil {
		return nil
	}
	dur := "running"
	if d := s.Duration(); d > 0 || !s.endIsZero() {
		dur = d.Round(time.Microsecond).String()
	}
	attrs := s.attrString()
	if _, err := fmt.Fprintf(w, "%s%s (%s)%s\n",
		strings.Repeat("  ", depth), s.Name, dur, attrs); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := c.writeTree(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (s *Span) endIsZero() bool {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.end.IsZero()
}

func (s *Span) attrString() string {
	s.smu.Lock()
	defer s.smu.Unlock()
	if len(s.attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s.attrs))
	for k := range s.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, s.attrs[k])
	}
	return b.String()
}
