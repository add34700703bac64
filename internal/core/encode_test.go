package core

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
)

// The functions below are the original bit-at-a-time encoders and payload
// extractors: binary schemes scatter and gather every codeword bit through
// physOf, symbol schemes gather every symbol bit through the layout, run
// rscode's Encode and scatter the check symbols back bit by bit. They are
// kept as oracles for the word-level Encode and ExtractData.

func (b *Binary) encodeRef(data [bitvec.DataBytes]byte) bitvec.V288 {
	var wire bitvec.V288
	for c := 0; c < 4; c++ {
		var word uint64
		for k := 0; k < 8; k++ {
			word |= uint64(data[c*8+k]) << uint(8*k)
		}
		cw := b.h.Codeword(word)
		for j := 0; j < 72; j++ {
			if cw.Bit(j) != 0 {
				wire = wire.FlipBit(int(b.physOf[c][j]))
			}
		}
	}
	return wire
}

func (b *Binary) extractDataRef(wire bitvec.V288) [bitvec.DataBytes]byte {
	var data [bitvec.DataBytes]byte
	for c := 0; c < 4; c++ {
		for k := 0; k < 8; k++ {
			var v byte
			for bit := 0; bit < 8; bit++ {
				v |= byte(wire.Bit(int(b.physOf[c][8*k+bit]))) << uint(bit)
			}
			data[c*8+k] = v
		}
	}
	return data
}

// scatterSymbol writes one symbol value back to the wire.
func (s *Symbol) scatterSymbol(cw, pos int, v uint8, wire bitvec.V288) bitvec.V288 {
	bits := &s.layout[cw][pos]
	for k := 0; k < 8; k++ {
		wire = wire.SetBit(int(bits[k]), uint(v>>uint(k))&1)
	}
	return wire
}

func (s *Symbol) encodeRef(data [bitvec.DataBytes]byte) bitvec.V288 {
	var wire bitvec.V288
	for d, v := range data {
		base := (d/8)*bitvec.BeatBits + (d%8)*8
		for k := 0; k < 8; k++ {
			wire = wire.SetBit(base+k, uint(v>>uint(k))&1)
		}
	}
	symbols := make([]uint8, s.rs.N)
	for cw := range s.layout {
		s.gatherSymbols(cw, wire, symbols)
		s.rs.Encode(symbols[:s.rs.K:s.rs.K], symbols)
		for t := s.rs.K; t < s.rs.N; t++ {
			wire = s.scatterSymbol(cw, t, symbols[t], wire)
		}
	}
	return wire
}

func (s *Symbol) extractDataRef(wire bitvec.V288) [bitvec.DataBytes]byte {
	var data [bitvec.DataBytes]byte
	for d := range data {
		base := (d/8)*bitvec.BeatBits + (d%8)*8
		for k := 0; k < 8; k++ {
			data[d] |= byte(wire.Bit(base+k)) << uint(k)
		}
	}
	return data
}

// refCodec returns the oracle encoder and extractor behind scheme s.
func refCodec(t *testing.T, s Scheme) (func([bitvec.DataBytes]byte) bitvec.V288, func(bitvec.V288) [bitvec.DataBytes]byte) {
	t.Helper()
	switch x := s.(type) {
	case *Binary:
		return x.encodeRef, x.extractDataRef
	case *Symbol:
		return x.encodeRef, x.extractDataRef
	case *Reconfigurable:
		return x.duet.encodeRef, x.duet.extractDataRef
	}
	t.Fatalf("%s: no reference encoder for %T", s.Name(), s)
	return nil, nil
}

// checkEncodeExtract compares s's Encode and ExtractData with the oracles
// on payload data and on an arbitrary (not necessarily codeword) entry.
func checkEncodeExtract(t *testing.T, s Scheme, data [bitvec.DataBytes]byte, wire bitvec.V288) {
	t.Helper()
	encRef, extRef := refCodec(t, s)
	enc := s.Encode(data)
	if want := encRef(data); enc != want {
		t.Fatalf("%s: Encode(%x) = %v, oracle %v", s.Name(), data, enc, want)
	}
	if got := s.ExtractData(enc); got != data {
		t.Fatalf("%s: ExtractData(Encode(d)) = %x, want %x", s.Name(), got, data)
	}
	if got := s.DecodeWire(enc); got.Status != ecc.OK || got.Wire != enc {
		t.Fatalf("%s: Encode(%x) is not a clean codeword: %+v", s.Name(), data, got)
	}
	wire[4] &= 0xFFFFFFFF
	if got, want := s.ExtractData(wire), extRef(wire); got != want {
		t.Fatalf("%s: ExtractData(%v) = %x, oracle %x", s.Name(), wire, got, want)
	}
}

// TestEncodeExtractVsRef compares every scheme's Encode and ExtractData
// with the bit-loop oracles on structured and random inputs. The corpus
// (allSchemesDiff) must cover every name SchemeByName accepts.
func TestEncodeExtractVsRef(t *testing.T) {
	schemes := allSchemesDiff()
	covered := map[string]bool{}
	for _, s := range schemes {
		covered[s.Name()] = true
	}
	for _, name := range SchemeNames() {
		if !covered[name] {
			t.Fatalf("registry scheme %s is missing from allSchemesDiff", name)
		}
	}
	rng := rand.New(rand.NewSource(11))
	var ones [bitvec.DataBytes]byte
	for i := range ones {
		ones[i] = 0xFF
	}
	for _, s := range schemes {
		checkEncodeExtract(t, s, [bitvec.DataBytes]byte{}, bitvec.V288{})
		checkEncodeExtract(t, s, ones, bitvec.V288{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)})
		for d := 0; d < bitvec.DataBytes; d++ {
			var one [bitvec.DataBytes]byte
			one[d] = 0x81
			checkEncodeExtract(t, s, one, bitvec.V288{}.FlipBit(9*d%bitvec.EntryBits))
		}
		for n := 0; n < 500; n++ {
			var data [bitvec.DataBytes]byte
			rng.Read(data[:])
			var wire bitvec.V288
			for i := range wire {
				wire[i] = rng.Uint64()
			}
			checkEncodeExtract(t, s, data, wire)
		}
	}
}

// FuzzEncodeExtractVsRef feeds arbitrary payloads and entries to every
// scheme (every registry entry plus the reconfigurable decoder): Encode
// and ExtractData must match their bit-loop oracles, and ExtractData must
// invert Encode.
func FuzzEncodeExtractVsRef(f *testing.F) {
	for _, s := range fuzzSeedWords() {
		f.Add(append(s[:32:32], s...))
	}
	schemes := allSchemesDiff()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var buf [bitvec.DataBytes + 36]byte
		copy(buf[:], raw)
		var data [bitvec.DataBytes]byte
		copy(data[:], buf[:bitvec.DataBytes])
		wire := v288FromBytes(buf[bitvec.DataBytes:])
		for _, s := range schemes {
			checkEncodeExtract(t, s, data, wire)
		}
	})
}

// TestEncodeExtractAllocFree pins Encode and ExtractData of every scheme,
// which run on every device read and write, to zero allocations.
func TestEncodeExtractAllocFree(t *testing.T) {
	data := diffData()
	for _, s := range allSchemesDiff() {
		wire := s.Encode(data)
		if n := testing.AllocsPerRun(100, func() { wire = s.Encode(data) }); n != 0 {
			t.Errorf("%s: Encode allocates %v times per call", s.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { data = s.ExtractData(wire) }); n != 0 {
			t.Errorf("%s: ExtractData allocates %v times per call", s.Name(), n)
		}
	}
}
