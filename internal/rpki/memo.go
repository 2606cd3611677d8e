package rpki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"manrsmeter/internal/obsv"
)

// Signature checks by outcome. "miss" counts Ed25519 verifications
// actually performed (memo-less relying parties and checks past a full
// memo's cap included), "hit" the checks a memo answered instead: a cold
// relying party shows as misses, a warm one as hits.
var (
	mSigHit  = obsv.NewCounter("rpki_signature_checks_total", sigChecksHelp, "memo", "hit")
	mSigMiss = obsv.NewCounter("rpki_signature_checks_total", sigChecksHelp, "memo", "miss")
)

const sigChecksHelp = "RPKI signature checks, by whether a verdict memo answered them"

// VerdictMemo remembers Ed25519 verdicts so that relying-party runs over
// one repository — other dates, repeat runs, scenario forks — verify
// each signature once. The key is a SHA-256 digest of exactly the bytes
// that decide the verdict (public key, signed payload, signature) and
// nothing else: not an object pointer, a name or a date. A tampered
// object therefore has a different key and is verified for real, and a
// verdict, being a pure function of those bytes, may be shared by any
// number of concurrent relying parties. Validity windows, visibility
// lag, resource containment and the chain walk are not signature checks
// and are never remembered.
//
// A memo holds at most limit verdicts. Once full it stops inserting and
// verifies what it does not know on every check, so a long-lived process
// that keeps re-signing objects cannot grow it without bound.
type VerdictMemo struct {
	limit int

	mu       sync.Mutex
	verdicts map[[sha256.Size]byte]bool
}

// NewVerdictMemo returns an empty memo that holds at most limit verdicts.
func NewVerdictMemo(limit int) *VerdictMemo {
	return &VerdictMemo{limit: limit, verdicts: make(map[[sha256.Size]byte]bool)}
}

// Len returns how many verdicts the memo holds.
func (m *VerdictMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.verdicts)
}

// verify reports whether sig is pub's signature over payload. It is the
// package's only signature check; a nil memo verifies directly. A public
// key of the wrong size fails instead of panicking the verifier:
// certificates come from a repository the relying party does not trust.
func (m *VerdictMemo) verify(pub ed25519.PublicKey, payload, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	var key [sha256.Size]byte
	if m != nil {
		// The public key has a fixed size and the payload is length-framed,
		// so no two (key, payload, signature) triples share a preimage.
		var payloadLen [8]byte
		binary.BigEndian.PutUint64(payloadLen[:], uint64(len(payload)))
		h := sha256.New()
		h.Write(pub)
		h.Write(payloadLen[:])
		h.Write(payload)
		h.Write(sig)
		h.Sum(key[:0])

		m.mu.Lock()
		ok, known := m.verdicts[key]
		m.mu.Unlock()
		if known {
			mSigHit.Inc()
			return ok
		}
	}
	mSigMiss.Inc()
	ok := ed25519.Verify(pub, payload, sig)
	if m != nil {
		m.mu.Lock()
		if len(m.verdicts) < m.limit {
			m.verdicts[key] = ok
		}
		m.mu.Unlock()
	}
	return ok
}
