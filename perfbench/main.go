// Command perfbench is the repository's benchmark. It runs one of four
// workloads built from the paper's two halves plus the runtime layers,
// measures host time (what the simulator costs on this machine), checks
// the simulated outputs against independent oracles and stored digests,
// and prints one JSON result as its last line of output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics: half the
// time runs traced, between two untraced quarters, so the difference is
// the tracing overhead. See README.md in this directory.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"hbm2ecc/internal/obs"
)

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 5

// refSeeds are the seeds whose simulated-statistics digests are stored
// in refs.json: the default seed and one held out from tuning.
var refSeeds = []int64{1, 20211018}

//go:embed layers.json
var layersJSON []byte

//go:embed refs.json
var refsJSON []byte

// layerDef is one per-layer metric and the end-to-end metric it should
// move (see layers.json).
type layerDef struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Workloads []string `json:"workloads"`
	Moves     string   `json:"moves"`
	Controls  []string `json:"controls"`
}

// e2eUnits are the end-to-end metrics every untraced run prints.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"work_per_s":   "1/s",
	"unit_p50_ms":  "ms",
	"live_heap_mb": "MB",
	"ok_frac":      "frac",
}

// bodyResult is what one timed body reports.
type bodyResult struct {
	work      float64   // units of work completed
	workPerS  float64   // median throughput as the workload defines it
	lat       []float64 // per-unit cost or latency, ms
	latWin    []int     // measurement window of each lat sample; nil: one window
	heapMB    []float64 // live heap after each repetition, untraced only
	attempted int64
	failed    int64
	problems  []string // output-check failures
}

// sampleHeap records the live heap after a forced collection while the
// repetition's results are still referenced.
func (b *bodyResult) sampleHeap(results any) {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pools dropped
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(results)
	b.heapMB = append(b.heapMB, float64(ms.HeapAlloc)/1e6)
}

func (b *bodyResult) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// benchWorkload is one benchmark workload.
type benchWorkload interface {
	// setup builds the schemes, devices or service the body uses and
	// warms them; it is timed.
	setup(traced bool) error
	// body runs the timed work for d, recording spans on rec when
	// non-nil and adding workload-specific per-layer values to layer.
	body(seed int64, d time.Duration, rec *recorder, layer map[string]float64) *bodyResult
	// reference runs a fixed-size computation and returns the digest
	// of its simulated statistics.
	reference(seed int64) (string, error)
	// probes times the public functions of the layers the workload
	// exercises, recording spans on rec.
	probes(seed int64, rec *recorder, layer map[string]float64)
	close()
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "outcome-campaign":
		return &outcomeWL{}, nil
	case "beam-campaign":
		return &beamWL{}, nil
	case "ecc-montecarlo":
		return &montecarloWL{}, nil
	case "serve-decode":
		return &serveWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// errCheckFailed reports that the run finished but an output check
// failed; the result line has been printed with correct=false.
var errCheckFailed = errors.New("output checks failed")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errCheckFailed) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	wlName := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 emits per-layer metrics from a traced run")
	updateRefs := flag.Bool("update-refs", false, "rewrite refs.json from this build's digests and exit")
	flag.Parse()

	if *updateRefs {
		return writeRefs()
	}
	layers, err := loadLayers()
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	wl, err := newWorkload(*wlName)
	if err != nil {
		return err
	}
	defer wl.close()

	ctx := machineContext(*wlName, *seed)
	hdr, _ := json.Marshal(ctx)
	fmt.Printf("# context %s\n", hdr)

	setupS, err := timeSetup(wl, *trace == 1)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	d := time.Duration(*seconds * float64(time.Second))

	var metrics map[string]float64
	var res *bodyResult
	if *trace == 0 {
		metrics, res = untracedRun(wl, *seed, d, setupS)
	} else {
		var rec *recorder
		metrics, res, rec, err = tracedRun(wl, *wlName, *seed, d, layers)
		if err != nil {
			return err
		}
		if err := writeSpans(rec, *wlName, *seed, ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		}
	}

	refProblems := checkRefs(wl, *wlName)
	res.problems = append(res.problems, refProblems...)
	if len(refProblems) > 0 {
		res.failed += int64(len(refProblems))
		res.attempted += int64(len(refProblems))
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	out := map[string]map[string]any{}
	if *trace == 0 {
		for name, unit := range e2eUnits {
			out[name] = map[string]any{"value": metrics[name], "unit": unit}
		}
	} else {
		for _, l := range layers {
			out[l.Name] = map[string]any{"value": metrics[l.Name], "unit": l.Unit}
		}
	}
	printTable(out)
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return errCheckFailed
	}
	return nil
}

// timeSetup runs set-up setupReps times and returns the median CPU
// seconds; the last set-up stays in place for the body.
func timeSetup(wl benchWorkload, traced bool) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			wl.close()
		}
		c0 := cpuSeconds()
		if err := wl.setup(traced); err != nil {
			return 0, err
		}
		ts = append(ts, cpuSeconds()-c0)
	}
	return quantile(ts, 0.5), nil
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(wl benchWorkload, seed int64, d time.Duration, setupS float64) (map[string]float64, *bodyResult) {
	res := wl.body(seed, d, nil, map[string]float64{})
	fmt.Printf("# unit samples %d\n", len(res.lat))
	return map[string]float64{
		"setup_s":      setupS,
		"work_per_s":   res.workPerS,
		"unit_p50_ms":  windowedQuantile(res.lat, res.latWin, 0.5),
		"live_heap_mb": quantile(res.heapMB, 0.5),
		"ok_frac":      1 - float64(res.failed)/float64(max(res.attempted, 1)),
	}, res
}

// tracedRun measures the per-layer metrics: a traced half under spans
// and a CPU profile between two untraced quarters (so drift during the
// run does not read as tracing overhead), then the layer probes.
func tracedRun(wl benchWorkload, name string, seed int64, d time.Duration, layers []layerDef) (
	map[string]float64, *bodyResult, *recorder, error) {
	metrics := map[string]float64{}
	before := wl.body(seed, d/4, nil, map[string]float64{})

	rec := newRecorder()
	obs.DefaultTracer.SetLimits(1<<16, 1<<22)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := wl.body(seed, d/2, rec, metrics)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)

	bySelf, total, err := profileSelf(prof.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	known := map[string]bool{}
	for _, l := range layers {
		if mod, ok := strings.CutPrefix(l.Name, "self_frac."); ok {
			known[mod] = true
			metrics[l.Name] = 0
		}
	}
	for mod, n := range bySelf {
		key := moduleGroup(mod)
		if !known[key] {
			key = "other"
		}
		metrics["self_frac."+key] += float64(n) / float64(max(total, 1))
	}
	if traced.work > 0 {
		metrics["go.alloc_bytes_per_unit"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / traced.work
	}
	metrics["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	after := wl.body(seed, d/4, nil, map[string]float64{})
	if plain := (before.workPerS + after.workPerS) / 2; traced.workPerS > 0 && plain > 0 {
		metrics["trace.overhead_frac"] = plain/traced.workPerS - 1
	}

	wl.probes(seed, rec, metrics)
	for _, l := range layers {
		if _, ok := metrics[l.Name]; !ok && applies(l, name) {
			traced.problem("per-layer metric %s was not measured", l.Name)
		}
	}
	var mods []string
	for m := range rec.modules() {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	fmt.Printf("# span modules %s; %d profile samples\n", strings.Join(mods, ","), total)

	res := traced
	for _, p := range []*bodyResult{before, after} {
		res.attempted += p.attempted
		res.failed += p.failed
		res.problems = append(res.problems, p.problems...)
	}
	return metrics, res, rec, nil
}

// writeSpans writes the traced run's spans under .bench_build.
func writeSpans(rec *recorder, name string, seed int64, mctx map[string]string) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed)), mctx)
}

// moduleGroup folds the code-construction packages core is built on
// into one "codes" layer.
func moduleGroup(mod string) string {
	switch mod {
	case "ecc", "hsiao", "sec2bec", "rscode", "gf256", "gf2", "interleave", "anenc":
		return "codes"
	}
	return mod
}

func applies(l layerDef, wl string) bool {
	for _, w := range l.Workloads {
		if w == wl || w == "*" {
			return true
		}
	}
	return false
}

func loadLayers() ([]layerDef, error) {
	var ls []layerDef
	if err := json.Unmarshal(layersJSON, &ls); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return ls, nil
}

// checkRefs recomputes the workload's reference digests and compares
// them with refs.json.
func checkRefs(wl benchWorkload, name string) []string {
	refs := map[string]map[string]string{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return []string{"refs.json: " + err.Error()}
	}
	var out []string
	for _, s := range refSeeds {
		got, err := wl.reference(s)
		want := refs[name][strconv.FormatInt(s, 10)]
		switch {
		case err != nil:
			out = append(out, fmt.Sprintf("reference seed %d: %v", s, err))
		case got != want:
			out = append(out, fmt.Sprintf("reference seed %d: digest %s, stored %s", s, got, want))
		}
	}
	return out
}

// writeRefs recomputes every workload's digests into refs.json.
func writeRefs() error {
	refs := map[string]map[string]string{}
	for _, name := range []string{"outcome-campaign", "beam-campaign", "ecc-montecarlo", "serve-decode"} {
		wl, err := newWorkload(name)
		if err != nil {
			return err
		}
		if err := wl.setup(false); err != nil {
			return err
		}
		refs[name] = map[string]string{}
		for _, s := range refSeeds {
			dg, err := wl.reference(s)
			if err != nil {
				return err
			}
			refs[name][strconv.FormatInt(s, 10)] = dg
		}
		wl.close()
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("refs.json", append(b, '\n'), 0o644)
}

// digest hashes the JSON form of v.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// machineContext describes where the numbers were taken.
func machineContext(wl string, seed int64) map[string]string {
	ctx := map[string]string{
		"workload":   wl,
		"seed":       strconv.FormatInt(seed, 10),
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				ctx["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					ctx["commit"] += "+dirty"
				}
			}
		}
	}
	return ctx
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// windowedQuantile returns the median over measurement windows of each
// window's q-quantile, so a stall that hits a few windows does not move
// it; win[i] is the window of xs[i], and nil puts every sample in one.
func windowedQuantile(xs []float64, win []int, q float64) float64 {
	if win == nil {
		return quantile(xs, q)
	}
	byWin := map[int][]float64{}
	for i, x := range xs {
		byWin[win[i]] = append(byWin[win[i]], x)
	}
	var per []float64
	for _, w := range byWin {
		per = append(per, quantile(w, q))
	}
	return quantile(per, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation, or 0
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func printTable(out map[string]map[string]any) {
	var names []string
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, out[n]["value"], out[n]["unit"])
	}
}
