package classify

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
)

// maskByteAlignedRef is the original bit-loop form of maskByteAligned,
// kept as its oracle.
func maskByteAlignedRef(m bitvec.V288) bool {
	for w := 0; w < bitvec.Beats; w++ {
		beat := m.Beat(w)
		if beat.IsZero() {
			continue
		}
		bits := beat.Bits()
		b0 := bits[0] / 8
		for _, b := range bits[1:] {
			if b/8 != b0 {
				return false
			}
		}
	}
	return true
}

// TestMaskByteAlignedMatchesBitLoop draws per-beat lane errors (ECC lanes
// and word-4 lanes included), lane errors with one stray bit, sparse and
// dense masks, and compares the lane-mask rule with the bit loop.
func TestMaskByteAlignedMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(m bitvec.V288) {
		t.Helper()
		if got, want := maskByteAligned(m), maskByteAlignedRef(m); got != want {
			t.Fatalf("maskByteAligned(%x) = %v, bit loop %v", m, got, want)
		}
	}
	// One lane per beat, every lane of every beat in turn, plus the same
	// with a second bit in the beat's neighbouring lane.
	for lane := 0; lane < bitvec.EntryAlignedBytes; lane++ {
		m := bitvec.V288{}.SetByte(lane, 0xA5)
		check(m)
		check(m.FlipBit((bitvec.ByteBase(lane) + 8) % bitvec.EntryBits))
		check(m.FlipBit((bitvec.ByteBase(lane) + 8*bitvec.BytesPer72) % bitvec.EntryBits))
	}
	for i := 0; i < 100000; i++ {
		var m bitvec.V288
		switch i % 4 {
		case 0:
			for b := 0; b < bitvec.Beats; b++ {
				if rng.Intn(2) == 1 {
					m = m.SetByte(b*bitvec.BytesPer72+rng.Intn(bitvec.BytesPer72), byte(rng.Intn(256)))
				}
			}
		case 1:
			m = bitvec.V288{}.SetByte(rng.Intn(bitvec.EntryAlignedBytes), byte(1+rng.Intn(255))).
				FlipBit(rng.Intn(bitvec.EntryBits))
		case 2:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				m = m.FlipBit(rng.Intn(bitvec.EntryBits))
			}
		default:
			for w := range m {
				m[w] = rng.Uint64()
			}
		}
		check(m)
	}
}

// TestWord4EventPattern runs events through Analyze whose bits sit in the
// last uint64 word of the entry: data byte 31 is lane 34 (word 4), and
// data bytes 28 and 29 are lanes 31 and 32, straddling words 3 and 4.
func TestWord4EventPattern(t *testing.T) {
	for _, c := range []struct {
		got     map[int]byte
		pattern errormodel.Pattern
		aligned bool
	}{
		{map[int]byte{31: 0x81}, errormodel.Byte1, true},
		{map[int]byte{29: 0x0F}, errormodel.Byte1, true},
		{map[int]byte{28: 0x80, 29: 0x01}, errormodel.Bits2, false},
		{map[int]byte{3: 0x01, 31: 0x01}, errormodel.Bits2, true},
	} {
		var exp, got [hbm2.EntryBytes]byte
		for i, b := range c.got {
			got[i] = b
		}
		rec := microbench.Record{Time: 1, Entry: 9, Expected: exp, Got: got}
		ev := Analyze([]*microbench.Log{logOf(rec)}, Options{}).Events[0]
		if ev.Pattern != c.pattern || ev.ByteAligned != c.aligned {
			t.Errorf("error bytes %v: pattern %v aligned %v, want %v %v",
				c.got, ev.Pattern, ev.ByteAligned, c.pattern, c.aligned)
		}
	}
}
