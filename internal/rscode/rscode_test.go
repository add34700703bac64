package rscode

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gf256"
)

func newSSC(t *testing.T) *Code {
	t.Helper()
	c, err := New(gf256.Default(), 18, 16)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newDSDPlus(t *testing.T) *Code {
	t.Helper()
	c, err := New(gf256.Default(), 36, 32)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randData(rng *rand.Rand, k int) []uint8 {
	d := make([]uint8, k)
	rng.Read(d)
	return d
}

func TestNewValidation(t *testing.T) {
	f := gf256.Default()
	for _, bad := range [][2]int{{16, 16}, {10, 12}, {300, 16}, {18, 0}} {
		if _, err := New(f, bad[0], bad[1]); err == nil {
			t.Fatalf("New(%d,%d) must fail", bad[0], bad[1])
		}
	}
}

func TestEncodeZeroSyndromes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*Code{newSSC(t), newDSDPlus(t)} {
		for trial := 0; trial < 200; trial++ {
			data := randData(rng, c.K)
			cw := make([]uint8, c.N)
			c.Encode(data, cw)
			syn := make([]uint8, c.R)
			c.Syndromes(cw, syn)
			for j, s := range syn {
				if s != 0 {
					t.Fatalf("(%d,%d) syndrome %d = %#x", c.N, c.K, j, s)
				}
			}
		}
	}
}

// TestChecksFromSyndromesMatchesEncode checks that A⁻¹ applied to the
// syndromes of (data, 0) gives exactly Encode's check symbols.
func TestChecksFromSyndromesMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range []*Code{newSSC(t), newDSDPlus(t)} {
		tab := c.NewSynTab()
		for trial := 0; trial < 500; trial++ {
			cw := make([]uint8, c.N)
			copy(cw, randData(rng, c.K))
			checks := c.ChecksFromSyndromes(tab.Packed(cw))
			c.Encode(cw[:c.K], cw)
			for i := 0; i < c.R; i++ {
				if got := uint8(checks >> uint(8*i)); got != cw[c.K+i] {
					t.Fatalf("(%d,%d) check %d = %#x, Encode gives %#x", c.N, c.K, i, got, cw[c.K+i])
				}
			}
		}
	}
}

func TestSSCCorrectsEverySingleSymbolError(t *testing.T) {
	c := newSSC(t)
	rng := rand.New(rand.NewSource(2))
	data := randData(rng, c.K)
	ref := make([]uint8, c.N)
	c.Encode(data, ref)
	for pos := 0; pos < c.N; pos++ {
		for _, e := range []uint8{1, 0x80, 0xFF, 0x5A} {
			cw := append([]uint8(nil), ref...)
			cw[pos] ^= e
			r := c.DecodeSSC(cw)
			if r.Status != ecc.Corrected || r.Pos != pos || r.Value != e {
				t.Fatalf("pos %d err %#x: %+v", pos, e, r)
			}
			for i := range cw {
				if cw[i] != ref[i] {
					t.Fatalf("pos %d err %#x: symbol %d not restored", pos, e, i)
				}
			}
		}
	}
}

func TestSSCCleanDecode(t *testing.T) {
	c := newSSC(t)
	cw := make([]uint8, c.N)
	c.Encode(make([]uint8, c.K), cw)
	if r := c.DecodeSSC(cw); r.Status != ecc.OK || r.Pos != -1 {
		t.Fatalf("clean: %+v", r)
	}
}

func TestSSCDoubleSymbolNeverOK(t *testing.T) {
	// An SSC code has minimum distance 3: double-symbol errors are either
	// detected or miscorrected, never invisible.
	c := newSSC(t)
	rng := rand.New(rand.NewSource(3))
	data := randData(rng, c.K)
	ref := make([]uint8, c.N)
	c.Encode(data, ref)
	mis := 0
	n := 0
	for trial := 0; trial < 20000; trial++ {
		i, j := rng.Intn(c.N), rng.Intn(c.N)
		if i == j {
			continue
		}
		cw := append([]uint8(nil), ref...)
		cw[i] ^= uint8(1 + rng.Intn(255))
		cw[j] ^= uint8(1 + rng.Intn(255))
		r := c.DecodeSSC(cw)
		if r.Status == ecc.OK {
			t.Fatalf("double symbol (%d,%d) invisible", i, j)
		}
		if r.Status == ecc.Corrected {
			mis++
		}
		n++
	}
	// Plain SSC miscorrects a sizeable share of doubles (the motivation
	// for SSC-DSD+); sanity-check the measurement is in a plausible band.
	frac := float64(mis) / float64(n)
	if frac <= 0 || frac >= 0.5 {
		t.Fatalf("SSC double-symbol miscorrection fraction %.3f out of band", frac)
	}
}

func TestDSDPlusCorrectsEverySingleSymbolError(t *testing.T) {
	c := newDSDPlus(t)
	rng := rand.New(rand.NewSource(4))
	data := randData(rng, c.K)
	ref := make([]uint8, c.N)
	c.Encode(data, ref)
	for pos := 0; pos < c.N; pos++ {
		for _, e := range []uint8{1, 0xFF, 0xA5} {
			cw := append([]uint8(nil), ref...)
			cw[pos] ^= e
			r := c.DecodeSSCDSDPlus(cw)
			if r.Status != ecc.Corrected || r.Pos != pos || r.Value != e {
				t.Fatalf("pos %d err %#x: %+v", pos, e, r)
			}
		}
	}
}

func TestDSDPlusDetectsAllDoubleSymbolErrors(t *testing.T) {
	// The headline SSC-DSD+ property: complete double-symbol detection.
	c := newDSDPlus(t)
	rng := rand.New(rand.NewSource(5))
	data := randData(rng, c.K)
	ref := make([]uint8, c.N)
	c.Encode(data, ref)
	for trial := 0; trial < 50000; trial++ {
		i, j := rng.Intn(c.N), rng.Intn(c.N)
		if i == j {
			continue
		}
		cw := append([]uint8(nil), ref...)
		cw[i] ^= uint8(1 + rng.Intn(255))
		cw[j] ^= uint8(1 + rng.Intn(255))
		r := c.DecodeSSCDSDPlus(cw)
		if r.Status != ecc.Detected {
			t.Fatalf("double symbol (%d,%d): %+v", i, j, r)
		}
	}
}

func TestDSDPlusTripleSymbolDetectionNearComplete(t *testing.T) {
	// The paper reports >99.999964% triple-symbol detection. Sample
	// triples and require the SDC fraction to be tiny.
	c := newDSDPlus(t)
	rng := rand.New(rand.NewSource(6))
	data := randData(rng, c.K)
	ref := make([]uint8, c.N)
	c.Encode(data, ref)
	bad := 0
	n := 200000
	for trial := 0; trial < n; trial++ {
		cw := append([]uint8(nil), ref...)
		seen := map[int]bool{}
		for len(seen) < 3 {
			p := rng.Intn(c.N)
			if !seen[p] {
				seen[p] = true
				cw[p] ^= uint8(1 + rng.Intn(255))
			}
		}
		r := c.DecodeSSCDSDPlus(cw)
		if r.Status == ecc.OK {
			bad++
		} else if r.Status == ecc.Corrected {
			// Correction of a triple is a miscorrection.
			same := true
			for i := range cw {
				if cw[i] != ref[i] {
					same = false
					break
				}
			}
			if !same {
				bad++
			}
		}
	}
	if frac := float64(bad) / float64(n); frac > 1e-4 {
		t.Fatalf("triple-symbol SDC fraction %.2e too high", frac)
	}
}

func TestDSDPlusCleanAndPartialSyndromes(t *testing.T) {
	c := newDSDPlus(t)
	cw := make([]uint8, c.N)
	c.Encode(make([]uint8, c.K), cw)
	if r := c.DecodeSSCDSDPlus(cw); r.Status != ecc.OK {
		t.Fatalf("clean: %+v", r)
	}
	// Corrupt a check symbol only: still a single-symbol error, must be
	// corrected at the check position.
	cw[c.K+1] ^= 0x42
	r := c.DecodeSSCDSDPlus(cw)
	if r.Status != ecc.Corrected || r.Pos != c.K+1 {
		t.Fatalf("check-symbol error: %+v", r)
	}
}

func TestDecodeGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeSSC on R=4 code must panic")
		}
	}()
	c := newDSDPlus(t)
	cw := make([]uint8, c.N)
	c.DecodeSSC(cw)
}

func BenchmarkSSCDecode(b *testing.B) {
	c, _ := New(gf256.Default(), 18, 16)
	data := make([]uint8, 16)
	cw := make([]uint8, 18)
	c.Encode(data, cw)
	cw[7] ^= 0x21
	buf := make([]uint8, 18)
	for i := 0; i < b.N; i++ {
		copy(buf, cw)
		c.DecodeSSC(buf)
	}
}

func BenchmarkDSDPlusDecode(b *testing.B) {
	c, _ := New(gf256.Default(), 36, 32)
	data := make([]uint8, 32)
	cw := make([]uint8, 36)
	c.Encode(data, cw)
	cw[7] ^= 0x21
	buf := make([]uint8, 36)
	for i := 0; i < b.N; i++ {
		copy(buf, cw)
		c.DecodeSSCDSDPlus(buf)
	}
}
