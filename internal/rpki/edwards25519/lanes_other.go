//go:build !amd64 || purego

package edwards25519

// Off amd64, and under the purego tag, there is no lane kernel: every
// batch runs on the scalar path.

func lanesSupported() bool { return false }

func verifyLanes(pts []Point, keys *[8]*PublicKey, k *[8][64]int8, s *[8][32]int8) {
	panic("edwards25519: no lane kernel")
}

func signLanes(pts []Point, r *[8][32]int8) {
	panic("edwards25519: no lane kernel")
}
