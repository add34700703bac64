package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
)

// spanRec is one finished span. Times are nanoseconds since the
// recorder's epoch; Parent is the index of the enclosing span or -1.
type spanRec struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Spans opened on the
// probe goroutine nest through a stack; spans opened from other
// goroutines (the serve decode workers) are roots. A nil *recorder is
// a valid no-op, so untraced code paths pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
	stack []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open span of the probe stack.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{Name: name, Parent: parent, Start: now, End: -1})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
}

// root records an already-timed root span from any goroutine.
func (r *recorder) root(name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{Name: name, Parent: -1, Start: s, End: s + d.Nanoseconds()})
	r.mu.Unlock()
}

// meanNS returns the mean duration of the finished spans named name, or
// 0 if there are none.
func (r *recorder) meanNS(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n, total int64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			n++
			total += s.End - s.Start
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// selfNS returns span id's self time: its duration minus the part of
// its interval that its children cover (the union of the child
// intervals, so overlapping children are not counted twice).
func (r *recorder) selfNS(id int) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ivs [][2]int64
	for _, s := range r.spans[id+1:] {
		if s.Parent == id && s.End >= 0 {
			ivs = append(ivs, [2]int64{s.Start, s.End})
		}
	}
	s := r.spans[id]
	return s.End - s.Start - covered(ivs, s.Start, s.End)
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// modules returns the set of layer modules (the span name prefix before
// the first dot) that recorded at least one span.
func (r *recorder) modules() map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]bool{}
	for _, s := range r.spans {
		mod, _, _ := strings.Cut(s.Name, ".")
		out[mod] = true
	}
	return out
}

// write stores the run context and every span as JSON lines.
func (r *recorder) write(path string, context map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"context": context}); err != nil {
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedScheme is the core.Scheme decorator handed to gpusim.New: every
// Encode and Decode made inside the device read path becomes a child
// span of whatever probe span is open, and Encode calls are counted.
type timedScheme struct {
	core.Scheme
	rec     *recorder
	encName string
	decName string
	encodes int64
}

func newTimedScheme(s core.Scheme, short string, rec *recorder) *timedScheme {
	return &timedScheme{Scheme: s, rec: rec,
		encName: "core.encode." + short, decName: "core.decode." + short}
}

func (t *timedScheme) Encode(data [bitvec.DataBytes]byte) bitvec.V288 {
	t.encodes++
	id := t.rec.begin(t.encName)
	v := t.Scheme.Encode(data)
	t.rec.end(id)
	return v
}

func (t *timedScheme) Decode(recv bitvec.V288) core.DecodeResult {
	id := t.rec.begin(t.decName)
	res := t.Scheme.Decode(recv)
	t.rec.end(id)
	return res
}

// timedDecoder wraps a serve batch decoder (installed through
// serve.Config.DecoderFor): each batch decode is a root span on the
// recorder rec points at, if any, and the batch sizes feed the
// batcher-fill metrics.
type timedDecoder struct {
	bd      core.BatchDecoder
	rec     *atomic.Pointer[recorder]
	mu      sync.Mutex
	batches int
	entries int
}

func (d *timedDecoder) DecodeWireBatch(recv []bitvec.V288, out []core.WireResult) {
	start := time.Now()
	d.bd.DecodeWireBatch(recv, out)
	d.rec.Load().root("serve.decode_batch", start, time.Since(start))
	d.mu.Lock()
	d.batches++
	d.entries += len(recv)
	d.mu.Unlock()
}

func (d *timedDecoder) reset() {
	d.mu.Lock()
	d.batches, d.entries = 0, 0
	d.mu.Unlock()
}
