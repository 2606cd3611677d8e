package rpki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

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
// The memo also prepares the keys that sign many objects: a fixed-base
// table (edwards25519.PublicKey) verifies signatures under its key in
// batches, in under half the time of crypto/ed25519.Verify with the same
// verdicts. A run has the memo prepare, before its first check, each key
// its repository lists at least prepareAt ROAs under. A memo prepares at
// most limit keys and builds at most maxTables tables; every other key
// goes through crypto/ed25519.Verify.
type VerdictMemo struct {
	limit int

	mu       sync.Mutex
	verdicts map[[sha256.Size]byte]bool
	// keys holds each key the memo took up to prepare: its table, or nil
	// while the table is built and for a key off the curve.
	keys   map[[ed25519.PublicKeySize]byte]*edwards25519.PublicKey
	tables int // tables built or being built
}

const (
	// prepareAt is how many listed ROAs earn a key its table. A table
	// costs about as much as two or three verifications; a key that
	// signs fewer objects is verified by crypto/ed25519 alone.
	prepareAt = 32
	// maxTables caps a memo's tables, about 30 KB each.
	maxTables = 64
)

// NewVerdictMemo returns an empty memo that holds at most limit verdicts.
func NewVerdictMemo(limit int) *VerdictMemo {
	return &VerdictMemo{
		limit:    limit,
		verdicts: make(map[[sha256.Size]byte]bool),
		keys:     make(map[[ed25519.PublicKeySize]byte]*edwards25519.PublicKey),
	}
}

// Len returns how many verdicts the memo holds.
func (m *VerdictMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.verdicts)
}

// sigCheck asks whether sig is pub's signature over payload;
// verifyBatch answers in ok.
type sigCheck struct {
	pub          ed25519.PublicKey
	payload, sig []byte
	ok           bool
}

// sigTally counts one run's signature checks, for its span.
type sigTally struct{ hits, misses atomic.Int64 }

// verify reports whether sig is pub's signature over payload: a batch of
// one.
func (m *VerdictMemo) verify(pub ed25519.PublicKey, payload, sig []byte, tally *sigTally) bool {
	c := []sigCheck{{pub: pub, payload: payload, sig: sig}}
	m.verifyBatch(c, tally)
	return c[0].ok
}

// verifyBatch answers checks. It is the package's only signature check:
// a nil memo verifies with crypto/ed25519, so the memo-less relying party
// is the standard library's oracle, and a memo answers from its verdicts
// or verifies the rest, those under a prepared key together in one
// edwards25519.VerifyBatch. A public key of the wrong size fails instead
// of panicking the verifier: certificates come from a repository the
// relying party does not trust. tally, if not nil, counts the checks.
func (m *VerdictMemo) verifyBatch(checks []sigCheck, tally *sigTally) {
	keys := make([][sha256.Size]byte, len(checks))
	var todo []int
	for i := range checks {
		checks[i].ok = false
		if len(checks[i].pub) != ed25519.PublicKeySize {
			continue
		}
		todo = append(todo, i)
		if m != nil {
			keys[i] = verdictKey(checks[i])
		}
	}
	// Under the lock: answer what the memo knows and find the tables of
	// the rest.
	tables := make([]*edwards25519.PublicKey, len(checks))
	hits := int64(len(todo))
	if m != nil {
		m.mu.Lock()
		todo = slices.DeleteFunc(todo, func(i int) bool {
			ok, known := m.verdicts[keys[i]]
			checks[i].ok, tables[i] = ok, m.keys[[ed25519.PublicKeySize]byte(checks[i].pub)]
			return known
		})
		m.mu.Unlock()
	}
	hits -= int64(len(todo))

	var batch []edwards25519.Check
	var batchAt []int
	for _, i := range todo {
		c := &checks[i]
		if tables[i] != nil {
			batch = append(batch, edwards25519.Check{Key: tables[i], Message: c.payload, Sig: c.sig})
			batchAt = append(batchAt, i)
		} else {
			c.ok = ed25519.Verify(c.pub, c.payload, c.sig)
		}
	}
	ok := make([]bool, len(batch))
	edwards25519.VerifyBatch(batch, ok)
	for j, i := range batchAt {
		checks[i].ok = ok[j]
	}

	if m != nil {
		m.mu.Lock()
		for _, i := range todo {
			if len(m.verdicts) < m.limit {
				m.verdicts[keys[i]] = checks[i].ok
			}
		}
		m.mu.Unlock()
	}
	mSigHit.Add(hits)
	mSigMiss.Add(int64(len(todo)))
	if tally != nil {
		tally.hits.Add(hits)
		tally.misses.Add(int64(len(todo)))
	}
}

// verdictKey is the memo key of c: a SHA-256 digest of its public key,
// length-framed payload and signature. The public key has a fixed size
// and the payload is length-framed, so no two checks share a preimage.
func verdictKey(c sigCheck) (key [sha256.Size]byte) {
	var payloadLen [8]byte
	binary.BigEndian.PutUint64(payloadLen[:], uint64(len(c.payload)))
	h := sha256.New()
	h.Write(c.pub)
	h.Write(payloadLen[:])
	h.Write(c.payload)
	h.Write(c.sig)
	h.Sum(key[:0])
	return key
}

// prepareKeys builds a table, before a run's first check, for each of
// pubs the memo has not taken up yet, while it is under its caps, and
// returns how many it built. A key off the curve gets no table and gives
// its slot back: crypto/ed25519 rejects whatever it signs. Checks under
// a key whose table is still being built use crypto/ed25519.
func (m *VerdictMemo) prepareKeys(pubs []ed25519.PublicKey) (built int) {
	if m == nil {
		return 0
	}
	var build []ed25519.PublicKey
	m.mu.Lock()
	for _, pub := range pubs {
		if len(pub) != ed25519.PublicKeySize || len(m.keys) >= m.limit || m.tables >= maxTables {
			continue
		}
		if _, known := m.keys[[ed25519.PublicKeySize]byte(pub)]; !known {
			m.keys[[ed25519.PublicKeySize]byte(pub)] = nil
			m.tables++
			build = append(build, pub)
		}
	}
	m.mu.Unlock()
	for _, pub := range build {
		prepared, err := edwards25519.NewPublicKey(pub)
		m.mu.Lock()
		if err != nil {
			m.tables--
		} else {
			m.keys[[ed25519.PublicKeySize]byte(pub)] = prepared
			built++
		}
		m.mu.Unlock()
	}
	return built
}
