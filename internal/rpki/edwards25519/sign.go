package edwards25519

import (
	"crypto/sha512"
	"encoding/binary"
)

// SignBatch returns priv's Ed25519 signature of each message, byte for
// byte what crypto/ed25519.Sign returns: RFC 8032's deterministic
// signing, r = SHA-512(prefix ‖ M) mod ℓ, R = [r]B, k = SHA-512(R ‖ A ‖
// M) mod ℓ and S = (k·s + r) mod ℓ, where s and prefix come from
// SHA-512 of priv's seed and A is priv's second half. The batch encodes
// its R points with one field inversion.
//
// Signing is variable-time: table lookups and scalar arithmetic depend
// on the secret scalar and nonces, so timing can leak the key. That is
// acceptable only for keys no one needs to keep secret. This module's
// are crypto/rand keys held in rpki.CA's unexported key field, which
// sign a synthetic repository and are never written out.
func SignBatch(priv []byte, messages [][]byte) [][]byte {
	seed, pub := priv[:32], priv[32:64]
	expanded := sha512.Sum512(seed)
	expanded[0] &= 248
	expanded[31] &= 63
	expanded[31] |= 64
	var s scalar // below 2²⁵⁵, which is all mulAdd needs
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(expanded[8*i:])
	}

	h := sha512.New()
	var digest [64]byte
	nonces := make([]scalar, len(messages))
	pts := make([]Point, len(messages))
	var sum projP1xP1
	for i, m := range messages {
		h.Reset()
		h.Write(expanded[32:])
		h.Write(m)
		nonces[i] = reduceDigest(h.Sum(digest[:0]))
		rBytes := nonces[i].bytes()
		pts[i].Set(identity)
		pts[i].addBase(signedRadix256(&rBytes), &sum)
	}
	sigs := make([][]byte, len(messages))
	buf := make([]byte, 64*len(messages))
	for i, r := range encodeBatch(pts) {
		h.Reset()
		h.Write(r[:])
		h.Write(pub)
		h.Write(messages[i])
		k := reduceDigest(h.Sum(digest[:0]))
		sBytes := mulAdd(&k, &s, &nonces[i]).bytes()
		sig := buf[64*i : 64*i+64 : 64*i+64]
		copy(sig, r[:])
		copy(sig[32:], sBytes[:])
		sigs[i] = sig
	}
	return sigs
}
