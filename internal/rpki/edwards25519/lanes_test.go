package edwards25519

import (
	"crypto/ed25519"
	"testing"
)

// kernels lists the settings of useLanes the differential tests run
// under: the lane kernel, where this build and CPU have it, and always
// the scalar path.
func kernels() []bool {
	if lanesSupported() {
		return []bool{true, false}
	}
	return []bool{false}
}

// withKernel runs f with useLanes set to lanes.
func withKernel(lanes bool, f func()) {
	saved := useLanes
	useLanes = lanes
	defer func() { useLanes = saved }()
	f()
}

// TestKernelSelection logs the kernel this process selected (a -v run
// says whether the lane path ran) and checks that the CPU selected it:
// useLanes starts as lanesSupported, and Kernel names it.
func TestKernelSelection(t *testing.T) {
	t.Logf("kernel: %s", Kernel())
	want := map[bool]string{true: "ifma8", false: "scalar"}[lanesSupported()]
	if useLanes != lanesSupported() || Kernel() != want {
		t.Fatalf("useLanes %t, Kernel %q; this CPU and build support lanes: %t", useLanes, Kernel(), lanesSupported())
	}
}

// The lane kernel's sums encode like the scalar path's on digits chosen
// to reach every table entry: each radix-2⁸ digit of B from −128 to 127
// (all signedRadix256 yields) and each radix-16 digit of −A from −8 to 8
// in some lane, under three
// keys mixed across lanes, with zero digits (the identity entry)
// throughout and two lanes whose scalars are zero. verifyLanes must
// equal verifySum, and signLanes addBase from the identity.
func TestLanesMatchScalar(t *testing.T) {
	if !lanesSupported() {
		t.Skip("no lane kernel in this build or on this CPU")
	}
	var keys [3]*PublicKey
	for i := range keys {
		priv := ed25519.NewKeyFromSeed(append(make([]byte, 31), byte(i+1)))
		var err error
		if keys[i], err = NewPublicKey(priv.Public().(ed25519.PublicKey)); err != nil {
			t.Fatal(err)
		}
	}
	seenK, seenS := make(map[int8]bool), make(map[int8]bool)
	for g := range 3 {
		var ks [8]*PublicKey
		var k [8][64]int8
		var s [8][32]int8
		for l := range 8 {
			ks[l] = keys[(g+l)%3]
			for i := range k[l] {
				k[l][i] = int8((512*g+64*l+i)%17 - 8)
				seenK[k[l][i]] = true
			}
			for i := range s[l] {
				s[l][i] = int8((32*l+i+g)%256 - 128)
				seenS[s[l][i]] = true
			}
		}
		if g == 2 { // lanes with zero scalars
			k[3], s[3], k[6], s[6] = [64]int8{}, [32]int8{}, [64]int8{}, [32]int8{}
		}
		var verified, signed [8]Point
		verifyLanes(verified[:], &ks, &k, &s)
		signLanes(signed[:], &s)
		for l := range 8 {
			var want, base Point
			var sum projP1xP1
			want.verifySum(ks[l], k[l], s[l])
			base.Set(identity).addBase(s[l], &sum)
			var got, exp [32]byte
			if verified[l].bytes(&got); [32]byte(want.bytes(&exp)) != got {
				t.Errorf("group %d lane %d: verify sum %x, scalar %x", g, l, got, exp)
			}
			if signed[l].bytes(&got); [32]byte(base.bytes(&exp)) != got {
				t.Errorf("group %d lane %d: [r]B %x, scalar %x", g, l, got, exp)
			}
		}
	}
	if len(seenK) != 17 || len(seenS) != 256 {
		t.Fatalf("%d radix-16 and %d radix-2⁸ digit values covered, want 17 and 256", len(seenK), len(seenS))
	}
}
