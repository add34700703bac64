// Package fleet is the fleet health plane: per-node gpud-style health
// agents that classify raw soft-error outcomes into Xid-style events
// and rolling health windows, a coordinator that ingests node event
// streams with lease-and-expiry liveness tracking and bounded per-node
// state, and a policy engine that ranks nodes by predicted failure and
// drives drain/retire decisions.
//
// The division of labor mirrors leptonai/gpud: the agent is the
// on-node component (local classification, dedup, health state), the
// coordinator is the control plane (fleet-wide ranking, remediation
// commands), and the wire between them is a strict JSON protocol
// (protocol.go) with the same codec discipline as internal/cluster.
package fleet

import (
	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/resilience"
)

// Health is a node agent's summary self-assessment.
type Health int

const (
	// Healthy: nothing in the window demands action.
	Healthy Health = iota
	// Degraded: the node should be watched or drained soon.
	Degraded
	// Critical: the node needs remediation now.
	Critical
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "ok"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// HealthFromString parses the wire form of Health.
func HealthFromString(s string) (Health, bool) {
	switch s {
	case "ok":
		return Healthy, true
	case "degraded":
		return Degraded, true
	case "critical":
		return Critical, true
	default:
		return Healthy, false
	}
}

// AgentOptions tunes one node agent.
type AgentOptions struct {
	// WindowHours is the rolling health window (default 24 simulated
	// hours), bucketed per hour.
	WindowHours int
	// StormThreshold is the corrected-error count in the window that
	// fires an Xid 92 weak-cell-storm event (default 16).
	StormThreshold int
	// DUEBudget is the detected-uncorrectable budget before the agent
	// reports itself Critical and recommends a drain (default 4; the
	// resilience DegradeGuard default of 100 is sized for accelerated
	// beam runs, not field operation).
	DUEBudget int
	// Retirement bounds the agent's weak-row retirement table.
	Retirement resilience.RetirementPolicy
}

func (o *AgentOptions) defaults() {
	if o.WindowHours <= 0 {
		o.WindowHours = 24
	}
	if o.StormThreshold <= 0 {
		o.StormThreshold = 16
	}
	if o.DUEBudget <= 0 {
		o.DUEBudget = 4
	}
}

// window is a fixed ring of per-hour, per-code counts — the bounded
// rolling state everything else derives from.
type window struct {
	hours  int
	codes  []int
	index  map[int]int // code -> column
	bucket []int64     // current bucket's absolute hour
	counts [][]int     // [hour ring][code]
}

func newWindow(hours int) *window {
	codes := xid.Codes()
	w := &window{
		hours:  hours,
		codes:  codes,
		index:  make(map[int]int, len(codes)),
		bucket: make([]int64, hours),
		counts: make([][]int, hours),
	}
	for i, c := range codes {
		w.index[c] = i
	}
	for i := range w.counts {
		w.bucket[i] = -1
		w.counts[i] = make([]int, len(codes))
	}
	return w
}

// add records n events of code at absolute simulated hour h, expiring
// any ring slot that last held a different hour.
func (w *window) add(h int64, code, n int) {
	slot := int(h % int64(w.hours))
	if h < 0 {
		slot = 0
	}
	if w.bucket[slot] != h {
		w.bucket[slot] = h
		for i := range w.counts[slot] {
			w.counts[slot][i] = 0
		}
	}
	w.counts[slot][w.index[code]] += n
}

// total sums code's events across ring slots still inside the window
// ending at hour h.
func (w *window) total(h int64, code int) int {
	col := w.index[code]
	lo := h - int64(w.hours) + 1
	sum := 0
	for slot := 0; slot < w.hours; slot++ {
		if b := w.bucket[slot]; b >= lo && b <= h {
			sum += w.counts[slot][col]
		}
	}
	return sum
}

// Agent is one node's health component. It consumes raw decode
// outcomes (corrected / DUE / uncontained / crash), maintains the
// rolling window, weak-row retirement table, and DUE budget, and emits
// deduplicated Xid events into an outbox the reporting loop drains.
// Agents are not safe for concurrent use; each simulated node owns one.
type Agent struct {
	node string
	opts AgentOptions

	win    *window
	rt     *resilience.RetirementTable
	guard  *resilience.DegradeGuard
	outbox []xid.Event
	// dedup maps DedupKey -> outbox slot for the current reporting
	// interval; cleared on Drain so its size is bounded by the distinct
	// event streams between reports.
	dedup map[string]int
	// stormHour is the last hour a storm event fired (one per hour max).
	stormHour int64
	dead      bool
}

// NewAgent builds a healthy agent for the named node.
func NewAgent(node string, opts AgentOptions) *Agent {
	opts.defaults()
	return &Agent{
		node:  node,
		opts:  opts,
		win:   newWindow(opts.WindowHours),
		rt:    resilience.NewRetirementTable(opts.Retirement),
		guard: resilience.NewDegradeGuard(opts.DUEBudget),
		dedup: map[string]int{},
	}
}

// Node returns the agent's node ID.
func (a *Agent) Node() string { return a.node }

// Dead reports whether the node has fallen off the bus.
func (a *Agent) Dead() bool { return a.dead }

// emit appends an event to the outbox, collapsing into an existing
// same-key event from this reporting interval when possible.
func (a *Agent) emit(e xid.Event) {
	key := e.DedupKey()
	if i, ok := a.dedup[key]; ok {
		// Row-scoped codes carry the row in their key; for the rest a
		// collapsed event spanning several rows reports Row -1.
		if a.outbox[i].Row != e.Row {
			a.outbox[i].Row = -1
		}
		a.outbox[i].Count = a.outbox[i].N() + e.N()
		return
	}
	a.dedup[key] = len(a.outbox)
	a.outbox = append(a.outbox, e)
}

// ObserveCorrected records a corrected (DCE) error on row at simulated
// time at: an Xid 94 event, retirement-table accounting (which may
// cascade into Xid 63 remap or Xid 64 spare-exhaustion events), and
// storm detection over the rolling window.
func (a *Agent) ObserveCorrected(at float64, row int64) {
	if a.dead {
		return
	}
	h := int64(at)
	a.win.add(h, xid.ContainedECC, 1)
	a.emit(xid.Event{Node: a.node, Code: xid.ContainedECC, AtHours: at, Row: row})

	before := a.rt.Dropped()
	if a.rt.Record(row) {
		a.win.add(h, xid.RowRemapRecorded, 1)
		a.emit(xid.Event{Node: a.node, Code: xid.RowRemapRecorded, AtHours: at, Row: row})
	} else if a.rt.Dropped() > before {
		a.win.add(h, xid.RowRemapFailure, 1)
		a.emit(xid.Event{Node: a.node, Code: xid.RowRemapFailure, AtHours: at, Row: row})
	}

	if a.win.total(h, xid.ContainedECC) >= a.opts.StormThreshold && a.stormHour != h {
		a.stormHour = h
		a.win.add(h, xid.HighSBERate, 1)
		a.emit(xid.Event{Node: a.node, Code: xid.HighSBERate, AtHours: at, Row: -1})
	}
}

// ObserveDUE records a detected-uncorrectable error: Xid 48 when the
// driver contained it, Xid 95 when it escaped containment. Either way
// it spends DUE budget and counts against the erroring row.
func (a *Agent) ObserveDUE(at float64, row int64, uncontained bool) {
	if a.dead {
		return
	}
	h := int64(at)
	code := xid.DoubleBitECC
	if uncontained {
		code = xid.UncontainedECC
	}
	a.win.add(h, code, 1)
	a.emit(xid.Event{Node: a.node, Code: code, AtHours: at, Row: row})
	a.guard.RecordDUE()

	before := a.rt.Dropped()
	if a.rt.Record(row) {
		a.win.add(h, xid.RowRemapRecorded, 1)
		a.emit(xid.Event{Node: a.node, Code: xid.RowRemapRecorded, AtHours: at, Row: row})
	} else if a.rt.Dropped() > before {
		a.win.add(h, xid.RowRemapFailure, 1)
		a.emit(xid.Event{Node: a.node, Code: xid.RowRemapFailure, AtHours: at, Row: row})
	}
}

// ObserveCrash records the node falling off the bus (Xid 79). The
// agent goes silent afterwards; the coordinator notices via lease
// expiry if this final report never arrives.
func (a *Agent) ObserveCrash(at float64) {
	if a.dead {
		return
	}
	a.dead = true
	a.win.add(int64(at), xid.OffTheBus, 1)
	a.emit(xid.Event{Node: a.node, Code: xid.OffTheBus, AtHours: at, Row: -1})
}

// Pending returns the number of undrained outbox events.
func (a *Agent) Pending() int { return len(a.outbox) }

// Drain takes the outbox (ownership transfers to the caller) and
// resets interval dedup state.
func (a *Agent) Drain() []xid.Event {
	out := a.outbox
	a.outbox = nil
	clear(a.dedup)
	return out
}

// Frames drains the outbox into report frames at simulated time at:
// MaxEventsPerReport events per frame, and always at least one frame,
// since an empty report is the heartbeat that renews the node's lease.
// seq is the node's last sent sequence number, advanced per frame.
func (a *Agent) Frames(seq *uint64, at float64) []ReportRequest {
	events := a.Drain()
	health, rec := a.Health(at)
	var out []ReportRequest
	for {
		batch := events
		if len(batch) > MaxEventsPerReport {
			batch = batch[:MaxEventsPerReport]
		}
		events = events[len(batch):]
		*seq++
		out = append(out, ReportRequest{
			NodeID:    a.node,
			Seq:       *seq,
			AtHours:   at,
			Health:    health.String(),
			Recommend: rec.String(),
			Events:    batch,
		})
		if len(events) == 0 {
			return out
		}
	}
}

// Health summarizes the agent's state at simulated time at, and the
// strongest remediation the window suggests. The rules compose the
// taxonomy's per-code remediations with the agent's budgets:
//
//   - dead, spare exhaustion, or uncontained errors => Critical
//   - DUE budget spent => Critical (drain)
//   - any DUE, a storm, or remap activity in the window => Degraded
func (a *Agent) Health(at float64) (Health, xid.Remediation) {
	h := int64(at)
	switch {
	case a.dead:
		return Critical, xid.RemedRetire
	case a.win.total(h, xid.RowRemapFailure) > 0:
		return Critical, xid.RemedRetire
	case a.win.total(h, xid.UncontainedECC) > 0:
		return Critical, xid.RemedDrain
	case a.guard.Degraded():
		return Critical, xid.RemedDrain
	case a.win.total(h, xid.DoubleBitECC) > 0:
		return Degraded, xid.RemedReset
	case a.win.total(h, xid.HighSBERate) > 0:
		return Degraded, xid.RemedMonitor
	case a.win.total(h, xid.RowRemapRecorded) > 0:
		return Degraded, xid.RemedMonitor
	default:
		return Healthy, xid.RemedNone
	}
}

// WindowCount exposes the rolling window total for one code at time
// at — the agent-side view tests assert against.
func (a *Agent) WindowCount(at float64, code int) int {
	return a.win.total(int64(at), code)
}
