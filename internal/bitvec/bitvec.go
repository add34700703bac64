// Package bitvec provides fixed-width bit vectors sized for HBM2 ECC work.
//
// The paper's unit of protection is a 36B memory entry: 32B of data plus 4B
// of ECC check bits, transmitted over 72 pins (64 data + 8 ECC) in 4 beats.
// This package supplies a 72-bit vector (one beat / one binary codeword) and
// a 288-bit vector (one whole entry), along with the index conventions used
// throughout the repository:
//
//   - Entry bit i lives on pin i%72 during beat i/72.
//   - Beat b occupies entry bits [72b, 72b+72).
//   - Within a beat, bits 0..63 are the 64 data pins (one 64b "word" in the
//     paper's terminology) and bits 64..71 are the 8 ECC pins.
//   - Physical aligned byte B (0..35) occupies bits [72*(B/9)+8*(B%9), +8),
//     which is [8B, 8B+8): byte B%8 of packed word B/8.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Entry and beat geometry constants shared by the whole repository.
const (
	BeatBits          = 72  // bits per beat (64 data + 8 check)
	DataBits          = 64  // data bits per beat
	CheckBits         = 8   // check bits per beat
	Beats             = 4   // beats per entry
	EntryBits         = 288 // bits per entry (4 beats x 72 bits)
	EntryBytes        = 36  // 32B data + 4B ECC
	DataBytes         = 32  // user data bytes per entry
	BytesPer72        = 9   // aligned bytes per beat
	EntryAlignedBytes = 36
	Pins              = 72 // data+check pins on a pseudo-channel
)

// V72 is a 72-bit vector: one DRAM beat, or one (72,64) binary codeword.
// Bit 0 is the least-significant bit of Lo; bits 64..71 are the low 8 bits
// of Hi. The zero value is the all-zero vector, ready to use.
type V72 struct {
	Lo uint64 // bits 0..63
	Hi uint64 // bits 64..71 (upper 56 bits must stay zero)
}

const hiMask = 0xFF // valid bits of V72.Hi

// Bit reports bit i (0..71).
func (v V72) Bit(i int) uint {
	if i < 64 {
		return uint(v.Lo>>uint(i)) & 1
	}
	return uint(v.Hi>>uint(i-64)) & 1
}

// SetBit returns v with bit i set to b (0 or 1).
func (v V72) SetBit(i int, b uint) V72 {
	if i < 64 {
		v.Lo = v.Lo&^(1<<uint(i)) | uint64(b&1)<<uint(i)
	} else {
		v.Hi = v.Hi&^(1<<uint(i-64)) | uint64(b&1)<<uint(i-64)
	}
	return v
}

// FlipBit returns v with bit i inverted.
func (v V72) FlipBit(i int) V72 {
	if i < 64 {
		v.Lo ^= 1 << uint(i)
	} else {
		v.Hi ^= 1 << uint(i-64)
	}
	return v
}

// Xor returns the bitwise XOR of v and w.
func (v V72) Xor(w V72) V72 { return V72{v.Lo ^ w.Lo, v.Hi ^ w.Hi} }

// And returns the bitwise AND of v and w.
func (v V72) And(w V72) V72 { return V72{v.Lo & w.Lo, v.Hi & w.Hi} }

// Or returns the bitwise OR of v and w.
func (v V72) Or(w V72) V72 { return V72{v.Lo | w.Lo, v.Hi | w.Hi} }

// IsZero reports whether every bit is zero.
func (v V72) IsZero() bool { return v.Lo == 0 && v.Hi&hiMask == 0 }

// OnesCount returns the number of set bits.
func (v V72) OnesCount() int {
	return bits.OnesCount64(v.Lo) + bits.OnesCount64(v.Hi&hiMask)
}

// Parity returns the XOR of all 72 bits.
func (v V72) Parity() uint {
	return uint(bits.OnesCount64(v.Lo)+bits.OnesCount64(v.Hi&hiMask)) & 1
}

// Bits returns the indices of all set bits in ascending order.
func (v V72) Bits() []int {
	out := make([]int, 0, v.OnesCount())
	lo := v.Lo
	for lo != 0 {
		out = append(out, bits.TrailingZeros64(lo))
		lo &= lo - 1
	}
	hi := v.Hi & hiMask
	for hi != 0 {
		out = append(out, 64+bits.TrailingZeros64(hi))
		hi &= hi - 1
	}
	return out
}

// String renders the vector as 18 hex digits, most-significant first.
func (v V72) String() string { return fmt.Sprintf("%02x%016x", v.Hi&hiMask, v.Lo) }

// V288 is a 288-bit vector: one whole 36B memory entry on the wire.
// Word i holds entry bits [64i, 64i+64); word 4 uses only its low 32 bits.
type V288 [5]uint64

const v288TopMask = 0xFFFFFFFF // valid bits of V288[4]

// Bit reports bit i (0..287).
func (v V288) Bit(i int) uint { return uint(v[i>>6]>>uint(i&63)) & 1 }

// SetBit returns v with bit i set to b.
func (v V288) SetBit(i int, b uint) V288 {
	v[i>>6] = v[i>>6]&^(1<<uint(i&63)) | uint64(b&1)<<uint(i&63)
	return v
}

// FlipBit returns v with bit i inverted.
func (v V288) FlipBit(i int) V288 {
	v[i>>6] ^= 1 << uint(i&63)
	return v
}

// Xor returns the bitwise XOR of v and w.
func (v V288) Xor(w V288) V288 {
	for i := range v {
		v[i] ^= w[i]
	}
	return v
}

// And returns the bitwise AND of v and w.
func (v V288) And(w V288) V288 {
	for i := range v {
		v[i] &= w[i]
	}
	return v
}

// Or returns the bitwise OR of v and w.
func (v V288) Or(w V288) V288 {
	for i := range v {
		v[i] |= w[i]
	}
	return v
}

// IsZero reports whether every bit is zero.
func (v V288) IsZero() bool {
	return v[0] == 0 && v[1] == 0 && v[2] == 0 && v[3] == 0 && v[4]&v288TopMask == 0
}

// OnesCount returns the number of set bits.
func (v V288) OnesCount() int {
	n := 0
	for i := 0; i < 4; i++ {
		n += bits.OnesCount64(v[i])
	}
	return n + bits.OnesCount64(v[4]&v288TopMask)
}

// Bits returns the indices of all set bits in ascending order.
func (v V288) Bits() []int {
	out := make([]int, 0, v.OnesCount())
	for w := 0; w < 5; w++ {
		word := v[w]
		if w == 4 {
			word &= v288TopMask
		}
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// Beat extracts beat b (0..3) as a V72. Beats start at bit offsets 0, 72,
// 144 and 216, i.e. word w=b, shift s=8b into the packed uint64 array.
func (v V288) Beat(b int) V72 {
	switch b {
	case 0:
		return V72{Lo: v[0], Hi: v[1] & hiMask}
	case 1:
		return V72{Lo: v[1]>>8 | v[2]<<56, Hi: (v[2] >> 8) & hiMask}
	case 2:
		return V72{Lo: v[2]>>16 | v[3]<<48, Hi: (v[3] >> 16) & hiMask}
	default:
		return V72{Lo: v[3]>>24 | v[4]<<40, Hi: (v[4] >> 24) & hiMask}
	}
}

// SetBeat returns v with beat b replaced by w.
func (v V288) SetBeat(b int, w V72) V288 {
	w.Hi &= hiMask
	switch b {
	case 0:
		v[0] = w.Lo
		v[1] = v[1]&^uint64(hiMask) | w.Hi
	case 1:
		v[1] = v[1]&hiMask | w.Lo<<8
		v[2] = v[2]&^uint64(0xFFFF) | w.Lo>>56 | w.Hi<<8
	case 2:
		v[2] = v[2]&0xFFFF | w.Lo<<16
		v[3] = v[3]&^uint64(0xFFFFFF) | w.Lo>>48 | w.Hi<<16
	default:
		v[3] = v[3]&0xFFFFFF | w.Lo<<24
		v[4] = v[4]&^uint64(0xFFFFFFFF) | w.Lo>>40 | w.Hi<<24
	}
	return v
}

// Byte extracts aligned byte i (0..35) from the entry: byte i%8 of word
// i/8, because ByteBase(i) == 8*i.
func (v V288) Byte(i int) byte { return byte(v[i>>3] >> (uint(i&7) * 8)) }

// SetByte returns v with aligned byte i replaced.
func (v V288) SetByte(i int, val byte) V288 {
	sh := uint(i&7) * 8
	v[i>>3] = v[i>>3]&^(0xFF<<sh) | uint64(val)<<sh
	return v
}

// ByteBase returns the entry-bit index of the first bit of aligned byte i.
// Bytes 0..8 of beat 0 are followed by bytes 9..17 of beat 1, and so on;
// the 9th byte of each beat (i%9 == 8) is that beat's ECC byte. A beat is
// exactly nine bytes wide, so the beat-and-offset form
// (i/9)*72 + (i%9)*8 reduces to the identity ByteBase(i) == 8*i: aligned
// byte i is the little-endian byte i%8 of word i/8.
func ByteBase(i int) int { return 8 * i }

// ByteOfBit returns the aligned-byte index containing entry bit i.
func ByteOfBit(i int) int { return (i/BeatBits)*BytesPer72 + (i%BeatBits)/8 }

// PinOfBit returns the pin (0..71) carrying entry bit i.
func PinOfBit(i int) int { return i % BeatBits }

// BeatOfBit returns the beat (0..3) carrying entry bit i.
func BeatOfBit(i int) int { return i / BeatBits }

// PinBits returns the four entry-bit indices carried on pin p.
func PinBits(p int) [4]int {
	return [4]int{p, BeatBits + p, 2*BeatBits + p, 3*BeatBits + p}
}

// WordOfBit returns the 64b data-word index (0..3) of entry bit i, or -1 if
// the bit is a check bit (pins 64..71).
func WordOfBit(i int) int {
	if i%BeatBits >= DataBits {
		return -1
	}
	return i / BeatBits
}

// FromBeats assembles an entry from its four beats. Beat b occupies entry
// bits [72b, 72b+72), which start at bit 8b of word b, so each beat lands
// with one shift per word. It equals four SetBeat calls on the zero entry
// and builds the entry in registers instead of copying it four times.
func FromBeats(w [Beats]V72) V288 {
	return V288{
		w[0].Lo,
		w[0].Hi&hiMask | w[1].Lo<<8,
		w[1].Lo>>56 | (w[1].Hi&hiMask)<<8 | w[2].Lo<<16,
		w[2].Lo>>48 | (w[2].Hi&hiMask)<<16 | w[3].Lo<<24,
		w[3].Lo>>40 | (w[3].Hi&hiMask)<<24,
	}
}

// FromDataECC assembles an entry from 32B of data and 4B of check bytes.
// Data byte d lands in beat d/8 at in-beat byte d%8; check byte c lands in
// beat c as the beat's 9th byte (pins 64..71): beat b is
// V72{Lo: data word b, Hi: ecc[b]}.
func FromDataECC(data [DataBytes]byte, ecc [4]byte) V288 {
	return FromBeats([Beats]V72{
		{Lo: binary.LittleEndian.Uint64(data[0:]), Hi: uint64(ecc[0])},
		{Lo: binary.LittleEndian.Uint64(data[8:]), Hi: uint64(ecc[1])},
		{Lo: binary.LittleEndian.Uint64(data[16:]), Hi: uint64(ecc[2])},
		{Lo: binary.LittleEndian.Uint64(data[24:]), Hi: uint64(ecc[3])},
	})
}

// DataECC splits an entry back into 32B of data and 4B of check bytes,
// inverting FromDataECC.
func (v V288) DataECC() (data [DataBytes]byte, ecc [4]byte) {
	for b := 0; b < Beats; b++ {
		w := v.Beat(b)
		binary.LittleEndian.PutUint64(data[8*b:], w.Lo)
		ecc[b] = byte(w.Hi)
	}
	return data, ecc
}

// DataWord returns the 64b data word of beat b (pins 0..63).
func (v V288) DataWord(b int) uint64 { return v.Beat(b).Lo }

// ByteLanes returns a 36-bit mask whose bit i is set when aligned byte i
// of v holds a set bit. Because ByteBase(i) == 8*i, lane i is the
// little-endian byte i%8 of word i/8, so the mask costs one gather per
// word. Beat b owns lanes [9b, 9b+9); lane 9b+8 is its ECC byte.
func (v V288) ByteLanes() uint64 {
	return nonzeroBytes(v[0]) | nonzeroBytes(v[1])<<8 | nonzeroBytes(v[2])<<16 |
		nonzeroBytes(v[3])<<24 | nonzeroBytes(v[4]&v288TopMask)<<32
}

// nonzeroBytes returns an 8-bit mask whose bit k is set when byte k of x
// is nonzero: each byte is folded onto its low bit, then the eight low
// bits are gathered into the top byte by one multiply (the partial
// products land on distinct bit positions, so nothing carries).
func nonzeroBytes(x uint64) uint64 {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	return (x & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// SameByte reports whether all set bits of v lie in one aligned byte.
// The zero vector reports false.
func (v V288) SameByte() bool { return bits.OnesCount64(v.ByteLanes()) == 1 }

// SamePin reports whether all set bits of v lie on one pin: the OR of
// the four beats has exactly one bit set. The zero vector reports false.
func (v V288) SamePin() bool {
	return v.Beat(0).Or(v.Beat(1)).Or(v.Beat(2)).Or(v.Beat(3)).OnesCount() == 1
}

// SameBeat reports whether all set bits of v lie in one beat: exactly one
// beat is nonzero. The zero vector reports false.
func (v V288) SameBeat() bool {
	n := 0
	for b := 0; b < Beats; b++ {
		if !v.Beat(b).IsZero() {
			n++
		}
	}
	return n == 1
}

// V72FromUint64 builds a V72 whose low 64 bits are lo and whose bits 64..71
// are the low 8 bits of hi.
func V72FromUint64(lo, hi uint64) V72 { return V72{Lo: lo, Hi: hi & hiMask} }
