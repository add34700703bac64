package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// The bit-loop predicates below are the original definitions of SameByte,
// SamePin and SameBeat: they walk every set bit through the index helpers.
// They are kept as oracles for the word-level versions.

func sameByteRef(v V288) bool {
	set := v.Bits()
	if len(set) == 0 {
		return false
	}
	b := ByteOfBit(set[0])
	for _, i := range set[1:] {
		if ByteOfBit(i) != b {
			return false
		}
	}
	return true
}

func samePinRef(v V288) bool {
	set := v.Bits()
	if len(set) == 0 {
		return false
	}
	p := PinOfBit(set[0])
	for _, i := range set[1:] {
		if PinOfBit(i) != p {
			return false
		}
	}
	return true
}

func sameBeatRef(v V288) bool {
	set := v.Bits()
	if len(set) == 0 {
		return false
	}
	b := BeatOfBit(set[0])
	for _, i := range set[1:] {
		if BeatOfBit(i) != b {
			return false
		}
	}
	return true
}

// beatsByteAlignedRef is the per-beat byte-alignment rule of the beam
// classifier (Fig. 4c) as a bit loop: within every beat, the set bits
// fall in at most one of its 9 byte lanes, the ECC lane included.
func beatsByteAlignedRef(v V288) bool {
	for b := 0; b < Beats; b++ {
		beat := v.Beat(b)
		if beat.IsZero() {
			continue
		}
		set := beat.Bits()
		for _, i := range set[1:] {
			if i/8 != set[0]/8 {
				return false
			}
		}
	}
	return true
}

// beatsByteAligned is the same rule on the lane mask.
func beatsByteAligned(v V288) bool {
	lanes := v.ByteLanes()
	for b := 0; b < Beats; b++ {
		if bits.OnesCount64(lanes>>(BytesPer72*b)&0x1FF) > 1 {
			return false
		}
	}
	return true
}

// checkPatternPredicates compares every word-level predicate on v against
// its oracle.
func checkPatternPredicates(t *testing.T, v V288) {
	t.Helper()
	if got, want := v.SameByte(), sameByteRef(v); got != want {
		t.Fatalf("SameByte(%x) = %v, oracle %v", v, got, want)
	}
	if got, want := v.SamePin(), samePinRef(v); got != want {
		t.Fatalf("SamePin(%x) = %v, oracle %v", v, got, want)
	}
	if got, want := v.SameBeat(), sameBeatRef(v); got != want {
		t.Fatalf("SameBeat(%x) = %v, oracle %v", v, got, want)
	}
	if got, want := beatsByteAligned(v), beatsByteAlignedRef(v); got != want {
		t.Fatalf("per-beat lane rule (%x) = %v, oracle %v", v, got, want)
	}
}

func vecOf(idx ...int) V288 {
	var v V288
	for _, i := range idx {
		v = v.SetBit(i, 1)
	}
	return v
}

// boundaryBits are the entry bits where a byte lane, a beat or a pin
// group meets a uint64 word boundary: the first ECC pin of beat 0 (64),
// the start of beat 1 (72), beat 1's ECC lane (136), the start of beat 2
// (144), beat 2's ECC lane (208), the start of beat 3 (216) and the first
// lane held in word 4 (256).
var boundaryBits = []int{64, 72, 136, 144, 208, 216, 256}

// patternTable returns structured vectors that force coverage of the ECC
// lanes, of lanes and beats straddling a word boundary, and of the unused
// top 32 bits of word 4.
func patternTable() []V288 {
	var out []V288
	out = append(out, V288{}, V288{4: 0xFFFFFFFF << 32})
	for _, e := range boundaryBits {
		lane := ByteBase(ByteOfBit(e))
		pins := PinBits(PinOfBit(e))
		beat := BeatOfBit(e)
		out = append(out,
			vecOf(e),
			vecOf(e, lane+7),  // two bits, one lane
			vecOf(e-1, e),     // neighbouring lanes across the boundary
			vecOf(pins[:]...), // the whole pin
			vecOf(pins[1], e), // two bits of one pin or two pins
			vecOf(e, (e+BeatBits)%EntryBits),
			vecOf(beat*BeatBits, beat*BeatBits+BeatBits-1), // beat ends
		)
	}
	// Every ECC pin of every beat, alone, as a pin and as a whole lane.
	for p := DataBits; p < Pins; p++ {
		pins := PinBits(p)
		out = append(out, vecOf(pins[:]...), vecOf(pins[0], pins[2]))
	}
	for beat := 0; beat < Beats; beat++ {
		ecc := V288{}.SetByte(beat*BytesPer72+8, 0xFF)
		out = append(out, ecc, ecc.FlipBit(beat*BeatBits))
		full := V288{}.SetBeat(beat, V72FromUint64(^uint64(0), ^uint64(0)))
		out = append(out, full)
	}
	// Word 4 alone: each of its four lanes, and garbage in the top 32 bits
	// on top of an otherwise one-lane error.
	for lane := 32; lane < EntryAlignedBytes; lane++ {
		v := V288{}.SetByte(lane, 0x81)
		out = append(out, v, V288{4: v[4] | 0xDEADBEEF<<32}, v.FlipBit(ByteBase(lane-32)))
	}
	all := V288{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	out = append(out, all)
	return out
}

func TestPatternPredicatesTable(t *testing.T) {
	table := patternTable()
	for _, v := range table {
		checkPatternPredicates(t, v)
	}
	var sink bool
	if n := testing.AllocsPerRun(20, func() {
		for _, v := range table {
			sink = v.SameByte() != v.SamePin() != v.SameBeat()
		}
	}); n != 0 {
		t.Errorf("pattern predicates allocate %v times per table pass", n)
	}
	_ = sink
	// Fixed answers, so a predicate and its oracle cannot drift together.
	cases := []struct {
		v                                V288
		sameByte, samePin, beat, aligned bool
	}{
		{V288{}, false, false, false, true},
		{V288{4: 0xFFFFFFFF << 32}, false, false, false, true},
		{vecOf(256, 263), true, false, true, true},
		{vecOf(280, 287), true, false, true, true},
		{vecOf(255, 256), false, false, true, false},
		{vecOf(64, 136), false, true, false, true},
		{vecOf(71, 143, 215, 287), false, true, false, true},
		{vecOf(143, 144), false, false, false, true},
		{vecOf(208, 215), true, false, true, true},
	}
	for _, c := range cases {
		if c.v.SameByte() != c.sameByte || c.v.SamePin() != c.samePin || c.v.SameBeat() != c.beat ||
			beatsByteAligned(c.v) != c.aligned {
			t.Errorf("%x: SameByte=%v SamePin=%v SameBeat=%v aligned=%v, want %v %v %v %v",
				c.v, c.v.SameByte(), c.v.SamePin(), c.v.SameBeat(), beatsByteAligned(c.v),
				c.sameByte, c.samePin, c.beat, c.aligned)
		}
	}
}

// TestByteLanesSingleBits checks the lane mask against ByteOfBit for
// every entry bit.
func TestByteLanesSingleBits(t *testing.T) {
	for i := 0; i < EntryBits; i++ {
		if got, want := (V288{}).FlipBit(i).ByteLanes(), uint64(1)<<ByteOfBit(i); got != want {
			t.Fatalf("ByteLanes(bit %d) = %#x, want %#x", i, got, want)
		}
	}
}

// randomPattern draws a single-byte, single-pin, single-beat, sparse or
// dense vector; kind picks which.
func randomPattern(rng *rand.Rand, kind int) V288 {
	var v V288
	switch kind {
	case 0: // one lane, any nonzero byte
		return v.SetByte(rng.Intn(EntryAlignedBytes), byte(1+rng.Intn(255)))
	case 1: // one pin, any beat subset
		pins := PinBits(rng.Intn(Pins))
		for b := 0; b < Beats; b++ {
			if rng.Intn(2) == 1 {
				v = v.FlipBit(pins[b])
			}
		}
		return v
	case 2: // one beat, uniform bits
		return v.SetBeat(rng.Intn(Beats), V72FromUint64(rng.Uint64(), rng.Uint64()))
	case 3: // a few bits anywhere
		for n := 2 + rng.Intn(5); n > 0; n-- {
			v = v.FlipBit(rng.Intn(EntryBits))
		}
		return v
	case 4: // a lane or pin error plus one stray bit
		v = randomPattern(rng, rng.Intn(2))
		return v.FlipBit(rng.Intn(EntryBits))
	default: // dense, with garbage in word 4's unused top half
		for i := range v {
			v[i] = rng.Uint64()
		}
		return v
	}
}

func TestPatternPredicatesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		checkPatternPredicates(t, randomPattern(rng, i%6))
	}
}

func FuzzPatternPredicates(f *testing.F) {
	for _, v := range patternTable() {
		f.Add(v[0], v[1], v[2], v[3], v[4])
	}
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4 uint64) {
		checkPatternPredicates(t, V288{w0, w1, w2, w3, w4})
	})
}
