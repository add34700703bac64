package main

import (
	"math/rand"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/workload"
)

// Probes time calls into each layer's public functions from outside.
// Each probe loop is one span; the scheme decorator adds a child span
// per Encode/Decode made inside it, so a probe's self time per call
// excludes the core work beneath it. Layers the benchmark cannot wrap
// (dram below gpusim, bitvec below dram) stay in their caller's self
// time.

// probeCalls is the iteration count of every probe loop.
const probeCalls = 4000

// workloadConfig matches the device the workload engine builds per run.
var workloadConfig = hbm2.Config{Stacks: 1}

// sink keeps probe results live so the calls are not optimised away.
var sink uint64

// probeSchemes are the schemes the per-scheme probes cover, by the short
// names the metric names use.
var probeSchemes = []struct{ short, name string }{
	{"duet", "DuetECC"}, {"trio", "TrioECC"}, {"sscdsd", "SSC-DSD+"},
}

func mustScheme(name string) core.Scheme {
	s, err := core.SchemeByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// probe runs fn n times inside one span named name and returns the
// span's self time per call in ns.
func probe(rec *recorder, name string, n int, fn func(i int)) float64 {
	id := rec.begin(name)
	for i := 0; i < n; i++ {
		fn(i)
	}
	rec.end(id)
	return float64(rec.selfNS(id)) / float64(n)
}

func randData(rng *rand.Rand) (d [bitvec.DataBytes]byte) {
	rng.Read(d[:])
	return d
}

// cleanDominated returns n received entries of s: random payloads, with
// about one entry in 256 carrying a 1-bit error.
func cleanDominated(rng *rand.Rand, s core.Scheme, n int) []bitvec.V288 {
	out := make([]bitvec.V288, n)
	for i := range out {
		out[i] = s.Encode(randData(rng))
		if rng.Intn(256) == 0 {
			out[i] = out[i].FlipBit(rng.Intn(bitvec.EntryBits))
		}
	}
	return out
}

func probeBitvec(rng *rand.Rand, rec *recorder, layer map[string]float64) {
	var data [64][bitvec.DataBytes]byte
	var wires [64]bitvec.V288
	for i := range data {
		data[i] = randData(rng)
		wires[i] = bitvec.FromDataECC(data[i], [4]byte{byte(i), 1, 2, 3})
	}
	layer["bitvec.from_data_ecc_ns"] = probe(rec, "bitvec.from_data_ecc", probeCalls, func(i int) {
		v := bitvec.FromDataECC(data[i&63], [4]byte{byte(i)})
		sink += v[0]
	})
	layer["bitvec.data_ecc_ns"] = probe(rec, "bitvec.data_ecc", probeCalls, func(i int) {
		d, e := wires[i&63].DataECC()
		sink += uint64(d[0]) + uint64(e[0])
	})
}

func probeTranspose(rng *rand.Rand, rec *recorder, layer map[string]float64) {
	entries := cleanDominated(rng, mustScheme("DuetECC"), 64)
	var slab bitvec.Slab
	layer["bitvec.transpose64_ns"] = probe(rec, "bitvec.transpose64", probeCalls/4, func(int) {
		bitvec.Transpose64(entries, &slab)
		sink += slab[0]
	})
}

// probeScalar times scalar Encode and Decode (Decode includes
// ExtractData) on clean-dominated entries.
func probeScalar(rng *rand.Rand, rec *recorder, layer map[string]float64) {
	for _, ps := range probeSchemes {
		s := mustScheme(ps.name)
		recv := cleanDominated(rng, s, 256)
		var data [256][bitvec.DataBytes]byte
		for i := range data {
			data[i] = randData(rng)
		}
		layer["core.encode_ns."+ps.short] = probe(rec, "core.encode."+ps.short, probeCalls, func(i int) {
			v := s.Encode(data[i&255])
			sink += v[1]
		})
		layer["core.decode_ns."+ps.short] = probe(rec, "core.decode."+ps.short, probeCalls, func(i int) {
			r := s.Decode(recv[i&255])
			sink += uint64(r.Data[0])
		})
	}
}

// probeBatch times the batch decoders per entry on 256-entry
// clean-dominated batches, for the given schemes.
func probeBatch(rng *rand.Rand, rec *recorder, layer map[string]float64, shorts ...string) {
	for _, ps := range probeSchemes {
		if !contains(shorts, ps.short) {
			continue
		}
		s := mustScheme(ps.name)
		bd := core.AsBatchDecoder(s)
		recv := cleanDominated(rng, s, 256)
		out := make([]core.WireResult, len(recv))
		n := probeCalls / 16
		layer["core.batch_decode_ns."+ps.short] = probe(rec, "core.batch_decode."+ps.short, n, func(int) {
			bd.DecodeWireBatch(recv, out)
			sink += uint64(out[0].Status)
		}) / float64(len(recv))
	}
}

// probeSlabClassify times SSC-DSD+'s slab classifier per trial on
// 64-trial slabs of 1-bit errors, the evaluator's sparse-pattern path.
func probeSlabClassify(rng *rand.Rand, rec *recorder, layer map[string]float64) {
	s := mustScheme("SSC-DSD+")
	sc, ok := s.(core.SlabClassifier)
	if !ok {
		return
	}
	base := s.Encode([bitvec.DataBytes]byte{})
	var errs, recv [64]bitvec.V288
	var touched []uint16
	seen := map[int]bool{}
	for j := range errs {
		b := rng.Intn(bitvec.EntryBits)
		errs[j] = errs[j].FlipBit(b)
		recv[j] = base.Xor(errs[j])
		if !seen[b] {
			seen[b] = true
			touched = append(touched, uint16(b))
		}
	}
	var eslab bitvec.Slab
	bitvec.Transpose64(errs[:], &eslab)
	layer["core.slab_classify_ns.sscdsd"] = probe(rec, "core.slab_classify.sscdsd", probeCalls/4, func(int) {
		dce, due, sdc := sc.ClassifyErrSlab(&eslab, touched, base, recv[:])
		sink += uint64(dce + due + sdc)
	}) / 64
}

func probeSampler(seed int64, rec *recorder, layer map[string]float64) {
	smp := errormodel.NewSampler(seed)
	for _, p := range []struct {
		short string
		p     errormodel.Pattern
	}{{"bits3", errormodel.Bits3}, {"beat1", errormodel.Beat1}, {"entry1", errormodel.Entry1}} {
		layer["errormodel.sample_ns."+p.short] = probe(rec, "errormodel.sample."+p.short, probeCalls, func(int) {
			v := smp.Sample(p.p)
			sink += v[0]
		})
	}
}

// entryPattern is the stored data of the probe devices.
func entryPattern(idx int64) (d [hbm2.EntryBytes]byte) {
	x := uint64(idx)*0x9E3779B97F4A7C15 + 1
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = byte(x)
	}
	return d
}

// probeReadPath times gpusim.Read per scheme through the timing
// decorator, and the encoded dram read and entry rewrite beneath it.
func probeReadPath(rng *rand.Rand, rec *recorder, layer map[string]float64) {
	idx := make([]int64, 256)
	for i := range idx {
		idx[i] = rng.Int63n(workloadConfig.Entries())
	}
	for _, ps := range append([]struct{ short, name string }{{"none", ""}}, probeSchemes...) {
		var sch core.Scheme
		if ps.name != "" {
			sch = newTimedScheme(mustScheme(ps.name), ps.short, rec)
		}
		gpu := gpusim.New(workloadConfig, sch)
		gpu.WritePattern(entryPattern)
		layer["gpusim.read_ns."+ps.short] = probe(rec, "gpusim.read."+ps.short, probeCalls, func(i int) {
			r := gpu.Read(idx[i&255])
			sink += uint64(r.Data[0])
		})
		if ps.short != "duet" {
			continue
		}
		dev := gpu.Dev
		layer["dram.read_wire_ns.encoded"] = probe(rec, "dram.read_wire.encoded", probeCalls, func(i int) {
			v := dev.ReadWire(idx[i&255], 1e-3)
			sink += v[0]
		})
		layer["dram.rewrite_entry_ns"] = probe(rec, "dram.rewrite_entry", probeCalls, func(i int) {
			dev.RewriteEntry(idx[i&255], 1e-3)
		})
	}
}

// probeMemory times workload.Memory loads and stores over a DuetECC
// device built with the timing decorator, and counts the encodes each
// memory operation costs.
func probeMemory(rng *rand.Rand, rec *recorder, layer map[string]float64) {
	ts := newTimedScheme(mustScheme("DuetECC"), "duet", rec)
	m := workload.NewMemory(gpusim.New(workloadConfig, ts))
	t := m.Alloc(1024)
	vals := make([]int32, t.Len())
	for i := range vals {
		vals[i] = rng.Int31()
	}
	enc0 := ts.encodes
	layer["workload.store_ns"] = probe(rec, "workload.store", probeCalls, func(i int) {
		m.Store(t, i%t.Len(), vals[i%t.Len()])
	})
	layer["workload.load_ns"] = probe(rec, "workload.load", probeCalls, func(i int) {
		sink += uint64(m.Load(t, i%t.Len()))
	})
	layer["core.encodes_per_op"] = float64(ts.encodes-enc0) / float64(2*probeCalls)
}

func probeFaults(seed int64, cfg hbm2.Config, rec *recorder, layer map[string]float64) {
	inj := faults.NewInjector(cfg, seed)
	layer["faults.event_ns"] = probe(rec, "faults.event", probeCalls, func(int) {
		ev := inj.RandomEvent()
		sink += uint64(len(ev.Effects))
	})
}

// probeRawRead times the raw (no-ECC) device read on dev.
func probeRawRead(rng *rand.Rand, dev *dram.Device, rec *recorder, layer map[string]float64) {
	idx := dev.InterestingEntries()
	for len(idx) < 256 {
		idx = append(idx, rng.Int63n(dev.Cfg.Entries()))
	}
	layer["dram.read_wire_ns.raw"] = probe(rec, "dram.read_wire.raw", probeCalls, func(i int) {
		v := dev.ReadWire(idx[i%len(idx)], 1e-3)
		sink += v[0]
	})
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
