package hashing

import (
	"math/big"
	"math/bits"
)

// field is Z_p for an odd modulus p, in Montgomery form: with k the number
// of machine words (limbs) p needs and R = 2^(k·wordBits), a residue x is
// held as the k limbs of x·R mod p, least significant first. Products are
// Montgomery multiplications — x·y·R⁻¹ mod p, one word-by-word (CIOS)
// reduction and no division — which is why p must be odd: R⁻¹ mod p exists
// only then. Every value a field operation takes or returns is fully
// reduced (< p), so the limbs of a residue are unique and the residue read
// back out of the field equals the one big.Int arithmetic would give.
//
// A one-limb field (every cubic-window modulus) also has scalar operations
// (mul1, exp1, add1, load1) that the evaluation loops use in place of the
// k-limb ones, which are correct for every k ≥ 1.
type field struct {
	p    []uint // the modulus, k limbs
	pinv uint   // −p⁻¹ mod 2^wordBits
	one  []uint // R mod p: the Montgomery form of 1
	r2   []uint // R² mod p: multiplying by it enters Montgomery form
	wR   []uint // 2^wordBits·R mod p: the Montgomery form of one word's base
	p0   uint   // p[0]: the whole modulus when k == 1
}

// stackLimbs is the largest limb count whose scratch space lives on the
// stack (1024-bit moduli on 64-bit machines: sym-dam up to n = 140).
// Larger moduli still work, with heap scratch per call.
const stackLimbs = 16

// scratchWords is the scratch one evaluation needs for a k-limb field:
// four k-limb residues and a (k+2)-word multiplication accumulator.
func scratchWords(k int) int { return 5*k + 2 }

// stackScratch is scratchWords(stackLimbs).
const stackScratch = 5*stackLimbs + 2

func newField(p *big.Int) *field {
	k := len(p.Bits())
	w := make([]uint, 4*k)
	f := &field{p: w[:k], one: w[k : 2*k], r2: w[2*k : 3*k], wR: w[3*k:]}
	setLimbs(f.p, p)
	f.p0 = f.p[0]
	if k == 1 {
		// Word division suffices, and 2^wordBits·R = R².
		f.one[0] = bits.Rem(1, 0, f.p0)
		hi, lo := bits.Mul(f.one[0], f.one[0])
		f.r2[0] = bits.Rem(hi, lo, f.p0)
		f.wR[0] = f.r2[0]
	} else {
		x := new(big.Int).Lsh(big.NewInt(1), uint(k*bits.UintSize))
		x.Mod(x, p)
		setLimbs(f.one, x)
		y := new(big.Int).Lsh(x, bits.UintSize)
		setLimbs(f.wR, y.Mod(y, p))
		setLimbs(f.r2, x.Mod(x.Mul(x, x), p))
	}
	// Newton's iteration for p⁻¹ mod 2^wordBits: each step doubles the
	// number of correct low bits, and p·p ≡ 1 mod 8 gives the first three.
	inv := f.p0
	for i := 0; i < 6; i++ {
		inv *= 2 - f.p0*inv
	}
	f.pinv = -inv
	return f
}

// setLimbs sets z to x (0 ≤ x < R) as little-endian words.
func setLimbs(z []uint, x *big.Int) {
	for j, w := range x.Bits() {
		z[j] = uint(w)
	}
}

// k returns the limb count.
func (f *field) k() int { return len(f.p) }

// scratch returns n words, from buf when it is long enough.
func scratch(buf []uint, n int) []uint {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]uint, n)
}

// mul1 returns x·y·R⁻¹ mod p for a one-limb field, x, y < p.
func (f *field) mul1(x, y uint) uint {
	hi, lo := bits.Mul(x, y)
	m := lo * f.pinv
	mh, ml := bits.Mul(m, f.p0)
	_, c := bits.Add(lo, ml, 0)
	t, c := bits.Add(hi, mh, c)
	// t + c·2^wordBits < 2p: one conditional subtraction reduces it.
	if c != 0 || t >= f.p0 {
		t -= f.p0
	}
	return t
}

// exp1 returns x^e in Montgomery form for a one-limb field, e ≥ 1: at most
// ⌊log₂ e⌋ squarings and one multiplication per further set bit. It scans
// e from the low bit, so the squarings and the multiplications into z
// form two chains the processor overlaps.
func (f *field) exp1(x uint, e int) uint {
	for ; e&1 == 0; e >>= 1 {
		x = f.mul1(x, x)
	}
	z := x
	for e >>= 1; e > 0; e >>= 1 {
		x = f.mul1(x, x)
		if e&1 != 0 {
			z = f.mul1(z, x)
		}
	}
	return z
}

// add1 returns x + y mod p for a one-limb field, x, y < p.
func (f *field) add1(x, y uint) uint {
	s, c := bits.Add(x, y, 0)
	if c != 0 || s >= f.p0 {
		s -= f.p0
	}
	return s
}

// mul sets z = x·y·R⁻¹ mod p by coarsely integrated operand scanning. t is
// k+2 words of scratch; z may alias x or y.
func (f *field) mul(z, x, y, t []uint) {
	p := f.p
	k := len(p)
	x, y, z, t = x[:k], y[:k], z[:k], t[:k+2]
	clear(t)
	for i := 0; i < k; i++ {
		// t += x·y[i]
		yi := y[i]
		var c, cc uint
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul(x[j], yi)
			lo, cc = bits.Add(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add(lo, c, 0)
			t[j], c = lo, hi+cc
		}
		t[k], cc = bits.Add(t[k], c, 0)
		t[k+1] = cc
		// t = (t + m·p) / 2^wordBits, with m chosen so the low word is zero.
		m := t[0] * f.pinv
		hi, lo := bits.Mul(m, p[0])
		_, cc = bits.Add(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < k; j++ {
			hi, lo = bits.Mul(m, p[j])
			lo, cc = bits.Add(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add(lo, c, 0)
			t[j-1], c = lo, hi+cc
		}
		t[k-1], cc = bits.Add(t[k], c, 0)
		t[k] = t[k+1] + cc
	}
	// t < 2p: subtract p unless t < p.
	var b uint
	for j := 0; j < k; j++ {
		z[j], b = bits.Sub(t[j], p[j], b)
	}
	if t[k] == 0 && b != 0 {
		copy(z, t[:k])
	}
}

// exp sets z = x^e in Montgomery form, e ≥ 1. z must not alias x.
func (f *field) exp(z, x []uint, e int, t []uint) {
	copy(z, x)
	for b := bits.Len(uint(e)) - 2; b >= 0; b-- {
		f.mul(z, z, z, t)
		if e>>uint(b)&1 != 0 {
			f.mul(z, z, x, t)
		}
	}
}

// add sets z = x + y mod p, x, y < p. z may alias x or y.
func (f *field) add(z, x, y []uint) {
	var c uint
	for j := range z {
		z[j], c = bits.Add(x[j], y[j], c)
	}
	if c != 0 || !f.less(z) {
		f.subP(z)
	}
}

// less reports whether x < p.
func (f *field) less(x []uint) bool {
	for j := len(f.p) - 1; j >= 0; j-- {
		if x[j] != f.p[j] {
			return x[j] < f.p[j]
		}
	}
	return false
}

// subP sets z = z − p, modulo 2^(k·wordBits).
func (f *field) subP(z []uint) {
	var b uint
	for j := range z {
		z[j], b = bits.Sub(z[j], f.p[j], b)
	}
}

// load sets z to the plain (not Montgomery) residue x mod p, reduced the
// Euclidean way, as big.Int.Mod and big.Int.Exp reduce: a negative x or
// one ≥ p lands in [0, p). tmp is k words and t k+2 words of scratch.
func (f *field) load(z []uint, x *big.Int, tmp, t []uint) {
	k := len(f.p)
	w := x.Bits()
	if x.Sign() >= 0 && len(w) <= k {
		clear(z)
		for j, v := range w {
			z[j] = uint(v)
		}
		if f.less(z) {
			return
		}
	}
	// Horner over x's words, most significant first: z = z·2^wordBits + w_j.
	// mul by wR multiplies a plain residue by 2^wordBits, and mul of a
	// single word by one reduces it mod p (the word alone may exceed a
	// one-limb p).
	clear(z)
	for j := len(w) - 1; j >= 0; j-- {
		f.mul(z, z, f.wR, t)
		clear(tmp)
		tmp[0] = uint(w[j])
		f.mul(tmp, tmp, f.one, t)
		f.add(z, z, tmp)
	}
	if x.Sign() < 0 && !isZero(z) {
		// −z ≡ p − z.
		var b uint
		for j := range z {
			z[j], b = bits.Sub(f.p[j], z[j], b)
		}
	}
}

func isZero(x []uint) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// toBig returns the plain residue z as a new big.Int.
func toBig(z []uint) *big.Int {
	w := make([]big.Word, len(z))
	for j, v := range z {
		w[j] = big.Word(v)
	}
	return new(big.Int).SetBits(w)
}

// load1 returns x mod p for a one-limb field (see load).
func (f *field) load1(x *big.Int) uint {
	if x.IsUint64() {
		if v := x.Uint64(); v < uint64(f.p0) {
			return uint(v)
		}
	}
	var buf [5]uint
	f.load(buf[:1], x, buf[1:2], buf[2:])
	return buf[0]
}

// enter sets z to the Montgomery form of x mod p (see load).
func (f *field) enter(z []uint, x *big.Int, tmp, t []uint) {
	f.load(z, x, tmp, t)
	f.mul(z, z, f.r2, t)
}

// leave returns the plain residue of the Montgomery-form z as a new
// big.Int. tmp is k words and t k+2 words of scratch.
func (f *field) leave(z, tmp, t []uint) *big.Int {
	clear(tmp)
	tmp[0] = 1
	f.mul(tmp, z, tmp, t)
	return toBig(tmp)
}

// addPlain sets z = (a + b) mod p, as k plain limbs.
func (f *field) addPlain(z []uint, a, b *big.Int) {
	k := len(f.p)
	var buf [3*stackLimbs + 2]uint
	w := scratch(buf[:], 3*k+2)
	y, tmp, t := w[:k], w[k:2*k], w[2*k:]
	f.load(z, a, tmp, t)
	f.load(y, b, tmp, t)
	f.add(z, z, y)
}

// powerSum1 accumulates Σ i^e over a stream of exponents e ≥ 1 in a
// one-limb field; powerSumK is the same for any limb count. Each power
// steps from the previous one: an ascending exponent multiplies it by
// i^gap, computed by square-and-multiply on the gap, so a term costs at
// most one multiplication per unit of gap and sparse rows stay cheap. A
// smaller exponent (unsorted input) restarts from i^e, and a repeated one
// adds the same power again.
type powerSum1 struct {
	f           *field
	e           int  // exponent of cur; 0 before the first term
	i, cur, sum uint // Montgomery form
}

func (f *field) powerSum1(i *big.Int) powerSum1 {
	return powerSum1{f: f, i: f.mul1(f.load1(i), f.r2[0])}
}

func (s *powerSum1) add(e int) {
	f := s.f
	switch {
	case s.e == 0 || e < s.e:
		s.cur = f.exp1(s.i, e)
	case e == s.e+1:
		s.cur = f.mul1(s.cur, s.i)
	case e > s.e:
		s.cur = f.mul1(s.cur, f.exp1(s.i, e-s.e))
	}
	s.e = e
	s.sum = f.add1(s.sum, s.cur)
}

// result returns the sum as a plain residue in a new big.Int.
func (s *powerSum1) result() *big.Int {
	return toBig([]uint{s.f.mul1(s.sum, 1)})
}

type powerSumK struct {
	f *field
	e int
	// i, the current power and the sum in Montgomery form, then k words
	// (g) and k+2 words (t) of scratch.
	i, cur, sum, g, t []uint
}

// powerSumK returns an empty sum under seed i, its scratch carved from
// buf when buf is long enough.
func (f *field) powerSumK(i *big.Int, buf []uint) powerSumK {
	k := len(f.p)
	w := scratch(buf, scratchWords(k))
	s := powerSumK{f: f, i: w[:k], cur: w[k : 2*k], sum: w[2*k : 3*k], g: w[3*k : 4*k], t: w[4*k:]}
	f.enter(s.i, i, s.g, s.t)
	clear(s.sum)
	return s
}

func (s *powerSumK) add(e int) {
	f := s.f
	switch {
	case s.e == 0 || e < s.e:
		f.exp(s.cur, s.i, e, s.t)
	case e > s.e:
		f.exp(s.g, s.i, e-s.e, s.t)
		f.mul(s.cur, s.cur, s.g, s.t)
	}
	s.e = e
	f.add(s.sum, s.sum, s.cur)
}

func (s *powerSumK) result() *big.Int {
	return s.f.leave(s.sum, s.g, s.t)
}
