package rpki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpki/edwards25519"
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
//
// The memo also prepares the keys that sign many objects: a key's
// prepareAt'th real verification builds it a fixed-base table
// (edwards25519.PublicKey), which verifies every later signature under
// it in well under half the time of crypto/ed25519.Verify with the same
// verdict. A memo counts at most limit keys and builds at most maxTables
// tables; every other key goes through crypto/ed25519.Verify.
type VerdictMemo struct {
	limit int

	mu       sync.Mutex
	verdicts map[[sha256.Size]byte]bool
	keys     map[[ed25519.PublicKeySize]byte]*issuerKey
	tables   int // tables built or being built
}

// issuerKey is what a memo knows of one public key.
type issuerKey struct {
	checks   int                     // real verifications under the key
	prepared *edwards25519.PublicKey // nil until its table is built
}

const (
	// prepareAt is the real verification that builds a key's table. A
	// table costs about as much as two or three verifications; a key
	// that signs fewer objects is verified by crypto/ed25519 alone.
	prepareAt = 32
	// maxTables caps a memo's tables, about 30 KB each.
	maxTables = 64
)

// NewVerdictMemo returns an empty memo that holds at most limit verdicts.
func NewVerdictMemo(limit int) *VerdictMemo {
	return &VerdictMemo{
		limit:    limit,
		verdicts: make(map[[sha256.Size]byte]bool),
		keys:     make(map[[ed25519.PublicKeySize]byte]*issuerKey),
	}
}

// Len returns how many verdicts the memo holds.
func (m *VerdictMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.verdicts)
}

// verify reports whether sig is pub's signature over payload. It is the
// package's only signature check: a nil memo verifies with
// crypto/ed25519, so the memo-less relying party is the standard
// library's oracle, and a memo answers from its verdicts or verifies
// under the key's table when it has one. A public key of the wrong size
// fails instead of panicking the verifier: certificates come from a
// repository the relying party does not trust.
func (m *VerdictMemo) verify(pub ed25519.PublicKey, payload, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	if m == nil {
		mSigMiss.Inc()
		return ed25519.Verify(pub, payload, sig)
	}
	// The public key has a fixed size and the payload is length-framed,
	// so no two (key, payload, signature) triples share a preimage.
	var key [sha256.Size]byte
	var payloadLen [8]byte
	binary.BigEndian.PutUint64(payloadLen[:], uint64(len(payload)))
	h := sha256.New()
	h.Write(pub)
	h.Write(payloadLen[:])
	h.Write(payload)
	h.Write(sig)
	h.Sum(key[:0])

	m.mu.Lock()
	if ok, known := m.verdicts[key]; known {
		m.mu.Unlock()
		mSigHit.Inc()
		return ok
	}
	issuer, prepared, build := m.issuerLocked(pub)
	m.mu.Unlock()
	if build {
		prepared = m.prepare(issuer, pub)
	}
	mSigMiss.Inc()
	var ok bool
	if prepared != nil {
		ok = prepared.Verify(payload, sig)
	} else {
		ok = ed25519.Verify(pub, payload, sig)
	}
	m.mu.Lock()
	if len(m.verdicts) < m.limit {
		m.verdicts[key] = ok
	}
	m.mu.Unlock()
	return ok
}

// issuerLocked counts a real verification under pub and returns the
// key's table, or that this verification is the one to build it. m.mu
// must be held.
func (m *VerdictMemo) issuerLocked(pub ed25519.PublicKey) (k *issuerKey, prepared *edwards25519.PublicKey, build bool) {
	k = m.keys[[ed25519.PublicKeySize]byte(pub)]
	if k == nil {
		if len(m.keys) >= m.limit {
			return nil, nil, false
		}
		k = new(issuerKey)
		m.keys[[ed25519.PublicKeySize]byte(pub)] = k
	}
	k.checks++
	if k.checks == prepareAt && m.tables < maxTables {
		m.tables++
		return k, nil, true
	}
	return k, k.prepared, false
}

// prepare builds k's table outside the lock; checks under k that run
// meanwhile use crypto/ed25519. A key off the curve gets no table and
// gives its slot back: crypto/ed25519 rejects whatever it signs.
func (m *VerdictMemo) prepare(k *issuerKey, pub ed25519.PublicKey) *edwards25519.PublicKey {
	prepared, err := edwards25519.NewPublicKey(pub)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.tables--
		return nil
	}
	k.prepared = prepared
	return prepared
}
