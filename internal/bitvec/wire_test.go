package bitvec

import (
	"math/rand"
	"testing"
)

// The bit loops below are the original definitions of the wire-layout
// helpers: every byte is walked bit by bit through the beat-and-offset
// byte base. They are kept as oracles for the word-level versions.

func byteBaseRef(i int) int { return (i/BytesPer72)*BeatBits + (i%BytesPer72)*8 }

func byteRef(v V288, i int) byte {
	base := byteBaseRef(i)
	var b byte
	for k := 0; k < 8; k++ {
		b |= byte(v.Bit(base+k)) << uint(k)
	}
	return b
}

func setByteRef(v V288, i int, val byte) V288 {
	base := byteBaseRef(i)
	for k := 0; k < 8; k++ {
		v = v.SetBit(base+k, uint(val>>uint(k))&1)
	}
	return v
}

func fromDataECCRef(data [DataBytes]byte, ecc [4]byte) V288 {
	var v V288
	for d, val := range data {
		v = setByteRef(v, (d/8)*BytesPer72+d%8, val)
	}
	for c, val := range ecc {
		v = setByteRef(v, c*BytesPer72+8, val)
	}
	return v
}

func dataECCRef(v V288) (data [DataBytes]byte, ecc [4]byte) {
	for d := range data {
		data[d] = byteRef(v, (d/8)*BytesPer72+d%8)
	}
	for c := range ecc {
		ecc[c] = byteRef(v, c*BytesPer72+8)
	}
	return data, ecc
}

func dataWordRef(v V288, b int) uint64 {
	var w uint64
	for i := 0; i < DataBits; i++ {
		w |= uint64(v.Bit(b*BeatBits+i)) << uint(i)
	}
	return w
}

// TestByteBaseIdentity checks ByteBase(i) == 8*i: nine 8-bit bytes fill a
// 72-bit beat exactly, so (i/9)*72 + (i%9)*8 == 8*i for every aligned
// byte.
func TestByteBaseIdentity(t *testing.T) {
	for i := 0; i < EntryAlignedBytes; i++ {
		if got, ref := ByteBase(i), byteBaseRef(i); got != 8*i || got != ref {
			t.Fatalf("ByteBase(%d) = %d, want 8*i = %d and beat form %d", i, got, 8*i, ref)
		}
		if ByteOfBit(ByteBase(i)) != i || ByteOfBit(ByteBase(i)+7) != i {
			t.Fatalf("ByteOfBit does not invert ByteBase at byte %d", i)
		}
	}
}

// checkWireLayout compares every word-level wire helper with its bit-loop
// oracle on the entry v (word 4's unused bits cleared) and on the payload
// and check bytes read from it.
func checkWireLayout(t *testing.T, v V288) {
	t.Helper()
	v[4] &= v288TopMask
	for i := 0; i < EntryAlignedBytes; i++ {
		if got, want := v.Byte(i), byteRef(v, i); got != want {
			t.Fatalf("Byte(%d) of %v = %#x, oracle %#x", i, v, got, want)
		}
		val := byte(v[i%5]>>uint(i)) ^ 0x5A
		if got, want := v.SetByte(i, val), setByteRef(v, i, val); got != want {
			t.Fatalf("SetByte(%d, %#x) of %v = %v, oracle %v", i, val, v, got, want)
		}
	}
	for b := 0; b < Beats; b++ {
		if got, want := v.DataWord(b), dataWordRef(v, b); got != want {
			t.Fatalf("DataWord(%d) of %v = %#x, oracle %#x", b, v, got, want)
		}
	}
	if got := FromBeats([Beats]V72{v.Beat(0), v.Beat(1), v.Beat(2), v.Beat(3)}); got != v {
		t.Fatalf("FromBeats of the beats of %v = %v", v, got)
	}
	data, ecc := v.DataECC()
	wantData, wantECC := dataECCRef(v)
	if data != wantData || ecc != wantECC {
		t.Fatalf("DataECC of %v = %x/%x, oracle %x/%x", v, data, ecc, wantData, wantECC)
	}
	got := FromDataECC(data, ecc)
	if want := fromDataECCRef(data, ecc); got != want {
		t.Fatalf("FromDataECC(%x, %x) = %v, oracle %v", data, ecc, got, want)
	}
	if got != v {
		t.Fatalf("FromDataECC(DataECC(v)) = %v, want v = %v", got, v)
	}
}

func TestWireLayoutMatchesBitLoops(t *testing.T) {
	var all V288
	for i := range all {
		all[i] = ^uint64(0)
	}
	structured := []V288{{}, all, V288{}.FlipBit(63).FlipBit(64), V288{}.FlipBit(71).FlipBit(72)}
	for b := 0; b < Beats; b++ {
		structured = append(structured, V288{}.SetBeat(b, V72{Lo: ^uint64(0), Hi: hiMask}))
		structured = append(structured, V288{}.SetBeat(b, V72{Hi: hiMask}))
	}
	for _, v := range structured {
		checkWireLayout(t, v)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 2000; n++ {
		var v V288
		for i := range v {
			v[i] = rng.Uint64()
		}
		checkWireLayout(t, v)
	}
}

// FuzzWireLayout drives Byte, SetByte, DataWord, DataECC, FromDataECC and
// FromBeats against their bit-loop oracles on arbitrary entries.
func FuzzWireLayout(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0x0123456789ABCDEF), uint64(0xFF00), uint64(0xFFFF0000), uint64(0xFF000000), uint64(0xFF000000))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4 uint64) {
		checkWireLayout(t, V288{w0, w1, w2, w3, w4})
	})
}

// TestWireLayoutAllocFree pins the entry assembly and split used on every
// device read to zero allocations.
func TestWireLayoutAllocFree(t *testing.T) {
	var data [DataBytes]byte
	for i := range data {
		data[i] = byte(i * 37)
	}
	var sink V288
	if n := testing.AllocsPerRun(100, func() {
		sink = FromDataECC(data, [4]byte{1, 2, 3, 4})
	}); n != 0 {
		t.Fatalf("FromDataECC allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		data, _ = sink.DataECC()
	}); n != 0 {
		t.Fatalf("DataECC allocates %v times per call", n)
	}
}
