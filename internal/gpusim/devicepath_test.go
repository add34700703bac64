package gpusim

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/hbm2"
)

// TestDevicePathMatchesWireDecode is the device leg of the cross-path
// equivalence check. For every Table-2 scheme and every error-pattern
// class, an error mask m injected into device memory and read back through
// Read must give the status and payload of decoding Encode(d) ^ m directly,
// and the read must agree with the slab classifier's DCE/DUE/SDC verdict
// on the same mask.
func TestDevicePathMatchesWireDecode(t *testing.T) {
	const perClass = 150
	var tally [3]int // DCE, DUE, SDC over every case
	for _, s := range core.Table2Schemes() {
		sc, ok := s.(core.SlabClassifier)
		if !ok {
			t.Fatalf("%s has no slab classifier", s.Name())
		}
		rng := rand.New(rand.NewSource(41))
		sampler := errormodel.NewSampler(43)
		payload := map[int64][hbm2.EntryBytes]byte{}
		g := New(hbm2.V100(), s)
		g.WritePattern(func(idx int64) [hbm2.EntryBytes]byte { return payload[idx] })
		g.Advance(1)
		var eslab bitvec.Slab
		for p := errormodel.Pattern(0); p < errormodel.NumPatterns; p++ {
			for n := 0; n < perClass; n++ {
				idx := rng.Int63n(1 << 20)
				var d [hbm2.EntryBytes]byte
				rng.Read(d[:])
				payload[idx] = d
				g.WriteEntry(idx)
				m := sampler.Sample(p)
				g.Dev.InjectCorruption(idx, dram.Corruption{Xor: m})

				got := g.Read(idx)
				base := s.Encode(d)
				want := s.DecodeWire(base.Xor(m))
				if got.Status != want.Status {
					t.Fatalf("%s %v mask %v: device status %v, wire decode %v", s.Name(), p, m, got.Status, want.Status)
				}
				if want.Status != ecc.Detected && got.Data != s.ExtractData(want.Wire) {
					t.Fatalf("%s %v mask %v: device data differs from the wire decode", s.Name(), p, m)
				}

				bitvec.Transpose64([]bitvec.V288{m}, &eslab)
				var touched []uint16
				for _, b := range m.Bits() {
					touched = append(touched, uint16(b))
				}
				dce, due, sdc := sc.ClassifyErrSlab(&eslab, touched, base, []bitvec.V288{base.Xor(m)})
				var verdict [3]int
				switch {
				case got.Status == ecc.Detected:
					verdict[1] = 1
				case got.Data == d:
					verdict[0] = 1
				default:
					verdict[2] = 1
				}
				if verdict != [3]int{dce, due, sdc} {
					t.Fatalf("%s %v mask %v: device read %v (data intact %v), classifier dce=%d due=%d sdc=%d",
						s.Name(), p, m, got.Status, got.Data == d, dce, due, sdc)
				}
				for i := range tally {
					tally[i] += verdict[i]
				}
			}
		}
	}
	if tally[0] == 0 || tally[1] == 0 || tally[2] == 0 {
		t.Fatalf("cases reached DCE %d, DUE %d, SDC %d times; every verdict must occur", tally[0], tally[1], tally[2])
	}
}

// TestReadAllocFree pins Read, with and without a scheme and on clean and
// corrupted entries, to zero allocations.
func TestReadAllocFree(t *testing.T) {
	for _, s := range []core.Scheme{nil, core.NewDuetECC(), core.NewTrioECC(), core.NewSSCDSDPlus()} {
		name := "no ECC"
		if s != nil {
			name = s.Name()
		}
		g := New(hbm2.V100(), s)
		g.WritePattern(pat)
		g.Advance(1)
		var c dram.Corruption
		c.Xor = c.Xor.FlipBit(100)
		g.Dev.InjectCorruption(3, c)
		for _, idx := range []int64{3, 4} {
			var sink ReadResult
			if n := testing.AllocsPerRun(100, func() { sink = g.Read(idx) }); n != 0 {
				t.Errorf("%s: Read(%d) allocates %v times per call (status %v)", name, idx, n, sink.Status)
			}
		}
	}
}
