package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var workloadNames = []string{"outcome-campaign", "beam-campaign", "ecc-montecarlo", "serve-decode"}

// forbiddenSpans are the structural controls: modules whose spans a
// workload must never record.
var forbiddenSpans = map[string][]string{
	"ecc-montecarlo": {"dram", "gpusim", "workload"},
	"serve-decode":   {"dram", "gpusim", "workload"},
	"beam-campaign":  {"core"},
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks BENCHMARK.json against the metric
// definitions the benchmark emits.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(bf.PerLayer), len(layers))
	}
	for i, l := range layers {
		p := bf.PerLayer[i]
		if p.Name != l.Name || p.Unit != l.Unit || p.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, layers.json has %s %s %s", i, p, l.Name, l.Unit, l.Better)
		}
		for _, w := range append(append([]string{}, l.Workloads...), l.Controls...) {
			if w != "*" && !contains(workloadNames, w) {
				t.Errorf("%s names unknown workload %q", l.Name, w)
			}
		}
	}
	if len(bf.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark emits %d", len(bf.EndToEnd), len(e2eUnits))
	}
	for _, e := range bf.EndToEnd {
		if e2eUnits[e.Name] != e.Unit {
			t.Errorf("end-to-end %s: unit %q, the benchmark emits %q", e.Name, e.Unit, e2eUnits[e.Name])
		}
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestWorkloads runs every workload briefly, untraced and traced.
func TestWorkloads(t *testing.T) {
	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			defer wl.close()
			setupS, err := timeSetup(wl, true)
			if err != nil {
				t.Fatal(err)
			}

			e2e, res := untracedRun(wl, 2, time.Second, setupS)
			for _, p := range res.problems {
				t.Errorf("untraced: %s", p)
			}
			for m := range e2eUnits {
				if v, ok := e2e[m]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("end-to-end %s = %v, want a finite positive value", m, v)
				}
			}

			perLayer, res, rec, err := tracedRun(wl, name, 2, 2*time.Second, layers)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("traced: %s", p)
			}
			selfSum := 0.0
			for _, l := range layers {
				v := perLayer[l.Name]
				if math.IsInf(v, 0) || math.IsNaN(v) || l.Unit == "" {
					t.Errorf("%s = %v %q, want a finite value with a unit", l.Name, v, l.Unit)
				}
				if strings.HasPrefix(l.Name, "self_frac.") {
					selfSum += v
				}
			}
			if selfSum > 1+1e-9 {
				t.Errorf("self_frac values sum to %v", selfSum)
			}
			mods := rec.modules()
			for _, m := range forbiddenSpans[name] {
				if mods[m] {
					t.Errorf("recorded %s spans; %s must not reach that layer", m, name)
				}
			}
			for _, p := range checkRefs(wl, name) {
				t.Errorf("digest: %s", p)
			}
		})
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(ivs, 2, 25); got != 1+7+5 {
		t.Errorf("covered = %d, want 13", got)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hbm2ecc/internal/bitvec.FromDataECC":        "bitvec",
		"hbm2ecc/internal/core.(*Binary).Encode":     "core",
		"hbm2ecc/internal/chaos/netchaos.(*T).Round": "chaos",
		"main.probe":      "bench",
		"runtime.memmove": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
