package errormodel

import (
	"testing"

	"hbm2ecc/internal/bitvec"
)

func vecOf(idx ...int) bitvec.V288 {
	var v bitvec.V288
	for _, i := range idx {
		v = v.FlipBit(i)
	}
	return v
}

// boundaryClasses are patterns at the uint64 word boundaries of the entry
// (word 4 holds lanes 32..35, the tail of beat 3) with their classes.
// Sample's rejection step rests on Classify getting these right.
var boundaryClasses = []struct {
	e    bitvec.V288
	want Pattern
}{
	{vecOf(256, 263), Byte1},               // lane 32, first lane of word 4
	{vecOf(280, 287), Byte1},               // lane 35, beat 3's ECC lane
	{vecOf(264, 265, 266, 267), Byte1},     // four bits of lane 33
	{vecOf(255, 256), Bits2},               // lanes 31 and 32 straddle words 3/4
	{vecOf(64, 136, 208, 280), Pin1},       // ECC pin 64 in every beat
	{vecOf(143, 144), Bits2},               // beats 1 and 2 straddle words 2/3
	{vecOf(216, 256, 270, 287), Beat1},     // beat 3 across words 3 and 4
	{vecOf(216, 256, 270, 287, 0), Entry1}, // plus one bit of beat 0
	{vecOf(136, 140, 200, 287, 288-73), Entry1},
}

// TestClassifyAndSampleAllocFree pins Classify and Sampler.Sample to zero
// heap allocations: they run on every Monte-Carlo trial.
func TestClassifyAndSampleAllocFree(t *testing.T) {
	for _, c := range boundaryClasses {
		if got := Classify(c.e); got != c.want {
			t.Errorf("Classify(%x) = %v, want %v", c.e, got, c.want)
		}
	}
	entry := NewSampler(7).Sample(Entry1)
	var sink Pattern
	if n := testing.AllocsPerRun(200, func() { sink = Classify(entry) }); n != 0 {
		t.Errorf("Classify(Entry1 vector) allocates %v times per call", n)
	}
	_ = sink
	s := NewSampler(8)
	for _, p := range []Pattern{Beat1, Entry1} {
		var e bitvec.V288
		if n := testing.AllocsPerRun(200, func() { e = s.Sample(p) }); n != 0 {
			t.Errorf("Sample(%v) allocates %v times per call", p, n)
		}
		if Classify(e) != p {
			t.Errorf("Sample(%v) drew a %v", p, Classify(e))
		}
	}
}
