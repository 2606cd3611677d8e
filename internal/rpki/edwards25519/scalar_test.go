package edwards25519

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// groupOrder is ℓ = 2²⁵² + 27742317777372353535851937790883648493.
var groupOrder, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

func bigLE(b []byte) *big.Int {
	be := slices.Clone(b)
	slices.Reverse(be)
	return new(big.Int).SetBytes(be)
}

func leBytes(n *big.Int, size int) []byte {
	b := n.FillBytes(make([]byte, size))
	slices.Reverse(b)
	return b
}

// reduceDigest and mulAdd agree with math/big on random values and on
// the edges of Barrett reduction: 0, ℓ−1, ℓ, multiples of ℓ and their
// neighbours, 2²⁵⁶−1 and 2⁵¹²−1.
func TestScalarReductionMatchesBig(t *testing.T) {
	one := big.NewInt(1)
	max512 := new(big.Int).Sub(new(big.Int).Lsh(one, 512), one)
	max256 := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	wides := []*big.Int{
		big.NewInt(0), one, new(big.Int).Sub(groupOrder, one), groupOrder, new(big.Int).Add(groupOrder, one),
		new(big.Int).Mul(groupOrder, groupOrder), max256, max512,
		new(big.Int).Mul(groupOrder, new(big.Int).Div(max512, groupOrder)),
		new(big.Int).Sub(new(big.Int).Mul(groupOrder, new(big.Int).Div(max512, groupOrder)), one),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		b = b[:64-rng.Intn(64)] // random widths, so small values come up too
		wides = append(wides, bigLE(b))
	}
	for _, x := range wides {
		got := reduceDigest(leBytes(x, 64)).bytes()
		if want := leBytes(new(big.Int).Mod(x, groupOrder), 32); !slices.Equal(got[:], want) {
			t.Fatalf("%x mod ℓ: got %x, want %x", x, got, want)
		}
	}

	narrows := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(groupOrder, one), groupOrder, max256}
	for i := 0; i < 300; i++ {
		b := make([]byte, 32)
		rng.Read(b)
		narrows = append(narrows, bigLE(b))
	}
	toScalar := func(n *big.Int) (s scalar) {
		b := leBytes(n, 32)
		for i := range s {
			for j := 7; j >= 0; j-- {
				s[i] = s[i]<<8 | uint64(b[8*i+j])
			}
		}
		return s
	}
	for i := range 3000 {
		a, b, c := narrows[i%len(narrows)], narrows[(i/7)%len(narrows)], narrows[(i/49)%len(narrows)]
		sa, sb, sc := toScalar(a), toScalar(b), toScalar(c)
		got := mulAdd(&sa, &sb, &sc).bytes()
		want := new(big.Int).Mul(a, b)
		want.Mod(want.Add(want, c), groupOrder)
		if !slices.Equal(got[:], leBytes(want, 32)) {
			t.Fatalf("%x·%x + %x mod ℓ: got %x, want %x", a, b, c, got, leBytes(want, 32))
		}
	}
}

// signedRadix256 digits recompose the scalar, each in [−128, 127].
func TestSignedRadix256(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		var b [32]byte
		rng.Read(b[:])
		b[31] &= 63
		if i == 0 {
			b = scalarMinusOneBytes
		}
		sum := new(big.Int)
		for j, d := range signedRadix256(&b) {
			sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(8*j)))
		}
		if sum.Cmp(bigLE(b[:])) != 0 {
			t.Fatalf("digits of %x sum to %x", b, sum)
		}
	}
}
