package interleave

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbm2ecc/internal/bitvec"
)

func TestPermutationBijective(t *testing.T) {
	var seen [bitvec.EntryBits]bool
	for i := 0; i < bitvec.EntryBits; i++ {
		p := PhysicalOf(i)
		if seen[p] {
			t.Fatalf("physical %d hit twice", p)
		}
		seen[p] = true
		if InterleavedOf(p) != i {
			t.Fatalf("inverse broken at %d", i)
		}
	}
}

func TestEquationOne(t *testing.T) {
	for i := 0; i < bitvec.EntryBits; i++ {
		if PhysicalOf(i) != (73*i)%288 {
			t.Fatalf("PhysicalOf(%d) = %d, want %d", i, PhysicalOf(i), (73*i)%288)
		}
	}
}

func TestGatherScatterInverse(t *testing.T) {
	f := func(raw [5]uint64) bool {
		v := bitvec.V288(raw)
		v[4] &= 0xFFFFFFFF
		return Scatter(Gather(v)) == v && Gather(Scatter(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestByteErrorSpreadsTwoBitsPerCodeword(t *testing.T) {
	// The headline property: any physical aligned byte error contributes
	// exactly 2 bits to each of the 4 interleaved codewords, and those two
	// bits are stride-4 apart (a single 2b symbol).
	for by := 0; by < bitvec.EntryAlignedBytes; by++ {
		base := bitvec.ByteBase(by)
		perCW := map[int][]int{}
		for k := 0; k < 8; k++ {
			p := base + k
			cw := CodewordOfPhysical(p)
			perCW[cw] = append(perCW[cw], InCodewordOfPhysical(p))
		}
		if len(perCW) != 4 {
			t.Fatalf("byte %d touches %d codewords", by, len(perCW))
		}
		for cw, positions := range perCW {
			if len(positions) != 2 {
				t.Fatalf("byte %d codeword %d gets %d bits", by, cw, len(positions))
			}
			a, b := positions[0], positions[1]
			if a > b {
				a, b = b, a
			}
			if b-a != 4 {
				t.Fatalf("byte %d codeword %d bits %d,%d not stride-4", by, cw, a, b)
			}
			if Symbol2bOfBit(a) != Symbol2bOfBit(b) {
				t.Fatalf("byte %d codeword %d bits not one 2b symbol", by, cw)
			}
		}
	}
}

func TestPinErrorOneBitPerCodeword(t *testing.T) {
	// The per-beat rotation must spread a pin error (same pin, all beats)
	// into at most one bit per codeword — preserving pin correction.
	for p := 0; p < bitvec.Pins; p++ {
		var seen [4]int
		for _, bit := range bitvec.PinBits(p) {
			seen[CodewordOfPhysical(bit)]++
		}
		for cw, n := range seen {
			if n != 1 {
				t.Fatalf("pin %d places %d bits in codeword %d", p, n, cw)
			}
		}
	}
}

func TestSymbol2bPartition(t *testing.T) {
	// The 36 stride-4 symbols partition the 72 codeword bits.
	var owner [72]int
	for i := range owner {
		owner[i] = -1
	}
	for s := 0; s < 36; s++ {
		a, b := Symbol2bBits(s)
		for _, bit := range []int{a, b} {
			if bit < 0 || bit >= 72 {
				t.Fatalf("symbol %d bit %d out of range", s, bit)
			}
			if owner[bit] != -1 {
				t.Fatalf("bit %d in two symbols", bit)
			}
			owner[bit] = s
			if Symbol2bOfBit(bit) != s {
				t.Fatalf("Symbol2bOfBit(%d) = %d, want %d", bit, Symbol2bOfBit(bit), s)
			}
		}
	}
}

func TestAdjacentSymbolPartition(t *testing.T) {
	for s := 0; s < 36; s++ {
		a, b := AdjacentSymbol2bBits(s)
		if b != a+1 || AdjacentSymbol2bOfBit(a) != s || AdjacentSymbol2bOfBit(b) != s {
			t.Fatalf("adjacent symbol %d broken: %d,%d", s, a, b)
		}
	}
}

func TestGatherMovesBeats(t *testing.T) {
	// A random physical entry: codeword c of the interleaved view must
	// equal bits (73*(72c+j)) mod 288 of the original.
	rng := rand.New(rand.NewSource(9))
	var v bitvec.V288
	for i := range v {
		v[i] = rng.Uint64()
	}
	v[4] &= 0xFFFFFFFF
	g := Gather(v)
	for c := 0; c < 4; c++ {
		cw := g.Beat(c)
		for j := 0; j < 72; j++ {
			if cw.Bit(j) != v.Bit((73*(72*c+j))%288) {
				t.Fatalf("codeword %d bit %d mismatch", c, j)
			}
		}
	}
}

// TestPhysicalOfCodewordBitIdentity checks the closed form
// PhysicalOfCodewordBit(c, j) == 72*((c+j)%4) + j against Eq. 1
// (73·(72c+j) mod 288): bit j of codeword c travels on pin j in beat
// (c+j)%4.
func TestPhysicalOfCodewordBitIdentity(t *testing.T) {
	for c := 0; c < bitvec.Beats; c++ {
		for j := 0; j < bitvec.BeatBits; j++ {
			got := PhysicalOfCodewordBit(c, j)
			if want := 72*((c+j)%4) + j; got != want {
				t.Fatalf("PhysicalOfCodewordBit(%d, %d) = %d, want 72*((c+j)%%4)+j = %d", c, j, got, want)
			}
			if eq1 := PhysicalOf(c*bitvec.BeatBits + j); got != eq1 {
				t.Fatalf("PhysicalOfCodewordBit(%d, %d) = %d, Eq. 1 gives %d", c, j, got, eq1)
			}
		}
	}
}
