// Package rscode implements the symbol-based (Reed-Solomon) ECC codes of
// §6.2/6.3 over GF(2^8):
//
//   - an (18,16) single-symbol-correct (SSC) code with a one-shot decoder
//     (Katayama-Morioka style: error location by discrete logarithm, no
//     error-locator polynomial), two of which protect one memory entry;
//   - a (36,32) SSC-DSD+ code: four check symbols, one-shot decoding that
//     locates the error independently from each adjacent syndrome pair and
//     corrects only when all three locations agree — single-symbol
//     correction, complete double-symbol detection, and near-complete
//     triple-symbol detection without solving the locator polynomial.
//
// Codewords are systematic: data symbols occupy positions 0..K-1 and check
// symbols positions K..N-1. Syndrome j of a received word v is
// S_j = Σ_i v_i · α^(i·j).
package rscode

import (
	"fmt"

	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gf256"
)

// Code is a systematic Reed-Solomon code over GF(2^8) with R = N-K check
// symbols. It is safe for concurrent use after construction.
type Code struct {
	F    *gf256.Field
	N, K int
	R    int
	enc  [][]uint8 // enc[r][i]: contribution of data symbol i to check r
	pow  [][]uint8 // pow[j][i] = α^(i·j) for syndrome computation
	// checkInv = A⁻¹ (see New) maps the syndromes of a word with zeroed
	// check symbols to the check symbols that cancel them.
	checkInv [][]uint8
}

// New constructs an (n,k) code over field f. n is limited to 255.
func New(f *gf256.Field, n, k int) (*Code, error) {
	if n <= k || k <= 0 || n > 255 {
		return nil, fmt.Errorf("rscode: invalid (%d,%d)", n, k)
	}
	r := n - k
	c := &Code{F: f, N: n, K: k, R: r}

	c.pow = make([][]uint8, r)
	for j := 0; j < r; j++ {
		c.pow[j] = make([]uint8, n)
		for i := 0; i < n; i++ {
			c.pow[j][i] = f.Exp(i * j)
		}
	}

	// Solve for check symbols: A·c = b with A[j][t] = α^((K+t)·j) and
	// b[j] = Σ_{i<K} d_i α^(i·j). Precompute M = A⁻¹ and fold into
	// per-data-symbol encode multipliers enc[t][i] = Σ_j M[t][j] α^(i·j).
	a := make([][]uint8, r)
	for j := 0; j < r; j++ {
		a[j] = make([]uint8, r)
		for t := 0; t < r; t++ {
			a[j][t] = f.Exp((k + t) * j)
		}
	}
	inv, err := invertGF(f, a)
	if err != nil {
		return nil, fmt.Errorf("rscode: check matrix singular: %w", err)
	}
	c.checkInv = inv
	c.enc = make([][]uint8, r)
	for t := 0; t < r; t++ {
		c.enc[t] = make([]uint8, k)
		for i := 0; i < k; i++ {
			var s uint8
			for j := 0; j < r; j++ {
				s ^= f.Mul(inv[t][j], f.Exp(i*j))
			}
			c.enc[t][i] = s
		}
	}
	return c, nil
}

// invertGF inverts a square matrix over GF(2^8) by Gauss-Jordan.
func invertGF(f *gf256.Field, a [][]uint8) ([][]uint8, error) {
	n := len(a)
	m := make([][]uint8, n)
	for i := range m {
		m[i] = make([]uint8, 2*n)
		copy(m[i], a[i])
		m[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		inv := f.Inv(m[col][col])
		for c := 0; c < 2*n; c++ {
			m[col][c] = f.Mul(m[col][c], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			factor := m[r][col]
			for c := 0; c < 2*n; c++ {
				m[r][c] ^= f.Mul(factor, m[col][c])
			}
		}
	}
	out := make([][]uint8, n)
	for i := range out {
		out[i] = m[i][n:]
	}
	return out, nil
}

// Encode fills cw (length N) with the systematic codeword for data
// (length K). cw and data may not alias unless cw[:K] is data itself.
func (c *Code) Encode(data, cw []uint8) {
	if len(data) != c.K || len(cw) != c.N {
		panic("rscode: bad Encode buffer sizes")
	}
	copy(cw[:c.K], data)
	for t := 0; t < c.R; t++ {
		var s uint8
		row := c.enc[t]
		for i, d := range data {
			if d != 0 {
				s ^= c.F.Mul(row[i], d)
			}
		}
		cw[c.K+t] = s
	}
}

// ChecksFromSyndromes returns the check symbols that complete a word whose
// check positions are zero, given that word's packed syndromes (SynTab
// layout: syndrome j in bits [8j, 8j+8)). Check symbol t is returned in
// bits [8t, 8t+8). The checks must cancel the data's syndromes,
// A·c = S with A[j][t] = α^((K+t)·j), so c = A⁻¹·S: R² multiplies in
// place of Encode's R·K. It requires R <= 4.
func (c *Code) ChecksFromSyndromes(packed uint32) uint32 {
	var out uint32
	for t, row := range c.checkInv {
		var v uint8
		for j, m := range row {
			v ^= c.F.Mul(m, uint8(packed>>uint(8*j)))
		}
		out |= uint32(v) << uint(8*t)
	}
	return out
}

// Syndromes fills syn (length R) with the syndromes of cw.
func (c *Code) Syndromes(cw, syn []uint8) {
	for j := 0; j < c.R; j++ {
		var s uint8
		row := c.pow[j]
		for i, v := range cw {
			if v != 0 {
				s ^= c.F.Mul(row[i], v)
			}
		}
		syn[j] = s
	}
}

// SynTab is a table-driven syndrome accumulator: entry [i][v] holds the
// contribution of symbol value v at position i to all R syndromes, packed
// 8 bits per syndrome (syndrome j occupies bits [8j, 8j+8)). One lookup
// and one XOR per received symbol replace the R log/exp multiplies of
// Syndromes, at a memory cost of N×256×4 bytes (36 KB for the (36,32)
// code, 18 KB for (18,16)). It is safe for concurrent use.
type SynTab struct {
	n, r int
	tab  [][256]uint32
}

// NewSynTab precomputes the packed syndrome table. It requires R <= 4.
func (c *Code) NewSynTab() *SynTab {
	if c.R > 4 {
		panic("rscode: SynTab supports at most 4 check symbols")
	}
	t := &SynTab{n: c.N, r: c.R, tab: make([][256]uint32, c.N)}
	for i := 0; i < c.N; i++ {
		for v := 1; v < 256; v++ {
			var packed uint32
			for j := 0; j < c.R; j++ {
				packed |= uint32(c.F.Mul(c.pow[j][i], uint8(v))) << uint(8*j)
			}
			t.tab[i][v] = packed
		}
	}
	return t
}

// Packed returns all R syndromes of cw, packed 8 bits per syndrome.
func (t *SynTab) Packed(cw []uint8) uint32 {
	if len(cw) != t.n {
		panic("rscode: bad SynTab codeword length")
	}
	var s uint32
	for i, v := range cw {
		s ^= t.tab[i][v]
	}
	return s
}

// Syndromes unpacks Packed into syn (length R), matching Code.Syndromes.
func (t *SynTab) Syndromes(cw, syn []uint8) {
	p := t.Packed(cw)
	for j := 0; j < t.r; j++ {
		syn[j] = uint8(p >> uint(8*j))
	}
}

// SynBitRows returns the GF(2) linearization of Syndromes. Multiplication
// by a constant is GF(2)-linear over the 8 bits of a GF(2^8) symbol, so
// every bit of every syndrome is an XOR (parity) of a fixed set of
// codeword bits. Row r = 8j+b lists the codeword bit indices (symbol*8 +
// bit, ascending) whose parity equals bit b of syndrome j. The bit-sliced
// batch kernels (internal/core) rewrite these rows into wire-lane space so
// one XOR of 64-entry lane words evaluates a syndrome bit for a whole
// batch at once.
func (c *Code) SynBitRows() [][]uint16 {
	rows := make([][]uint16, 8*c.R)
	for j := 0; j < c.R; j++ {
		for i := 0; i < c.N; i++ {
			coeff := c.pow[j][i]
			for k := 0; k < 8; k++ {
				m := c.F.Mul(coeff, 1<<uint(k))
				for b := 0; b < 8; b++ {
					if m>>uint(b)&1 != 0 {
						rows[8*j+b] = append(rows[8*j+b], uint16(8*i+k))
					}
				}
			}
		}
	}
	return rows
}

// Result is the outcome of decoding one RS codeword.
type Result struct {
	Status ecc.Status
	// Pos is the corrected symbol position, or -1.
	Pos int
	// Value is the error value XORed into the corrected symbol.
	Value uint8
}

// DecodeSSC performs one-shot single-symbol correction for R=2 codes,
// correcting cw in place. S0=S1=0 reports OK; a consistent single-symbol
// error is corrected; anything else is Detected.
func (c *Code) DecodeSSC(cw []uint8) Result {
	if c.R != 2 {
		panic("rscode: DecodeSSC requires 2 check symbols")
	}
	var syn [2]uint8
	c.Syndromes(cw, syn[:])
	return c.DecodeSSCSyn(cw, syn[0], syn[1])
}

// DecodeSSCSyn is DecodeSSC with syndromes computed by the caller (e.g.
// from a SynTab); it corrects cw in place.
func (c *Code) DecodeSSCSyn(cw []uint8, s0, s1 uint8) Result {
	if s0 == 0 && s1 == 0 {
		return Result{Status: ecc.OK, Pos: -1}
	}
	if s0 == 0 || s1 == 0 {
		return Result{Status: ecc.Detected, Pos: -1}
	}
	// e·α^(0·L) = S0, e·α^(1·L) = S1  =>  L = log(S1) - log(S0).
	loc := c.F.Log(s1) - c.F.Log(s0)
	if loc < 0 {
		loc += 255
	}
	if loc >= c.N {
		return Result{Status: ecc.Detected, Pos: -1}
	}
	cw[loc] ^= s0
	return Result{Status: ecc.Corrected, Pos: loc, Value: s0}
}

// DecodeSSCDSDPlus performs the paper's SSC-DSD+ one-shot decode for R=4
// codes, correcting cw in place. Error location is computed from each of
// the three adjacent syndrome pairs; correction proceeds only if all three
// agree on a valid position (the symbol-domain analogue of the correction
// sanity check). Everything else raises a DUE, giving complete double- and
// near-complete triple-symbol detection.
func (c *Code) DecodeSSCDSDPlus(cw []uint8) Result {
	if c.R != 4 {
		panic("rscode: DecodeSSCDSDPlus requires 4 check symbols")
	}
	var syn [4]uint8
	c.Syndromes(cw, syn[:])
	return c.DecodeSSCDSDPlusSyn(cw, syn)
}

// DecodeSSCDSDPlusSyn is DecodeSSCDSDPlus with syndromes computed by the
// caller (e.g. from a SynTab); it corrects cw in place.
func (c *Code) DecodeSSCDSDPlusSyn(cw []uint8, syn [4]uint8) Result {
	allZero := syn[0] == 0 && syn[1] == 0 && syn[2] == 0 && syn[3] == 0
	if allZero {
		return Result{Status: ecc.OK, Pos: -1}
	}
	if syn[0] == 0 || syn[1] == 0 || syn[2] == 0 || syn[3] == 0 {
		return Result{Status: ecc.Detected, Pos: -1}
	}
	l1 := c.logDiff(syn[1], syn[0])
	l2 := c.logDiff(syn[2], syn[1])
	l3 := c.logDiff(syn[3], syn[2])
	if l1 != l2 || l2 != l3 || l1 >= c.N {
		return Result{Status: ecc.Detected, Pos: -1}
	}
	cw[l1] ^= syn[0]
	return Result{Status: ecc.Corrected, Pos: l1, Value: syn[0]}
}

func (c *Code) logDiff(a, b uint8) int {
	d := c.F.Log(a) - c.F.Log(b)
	if d < 0 {
		d += 255
	}
	return d
}
