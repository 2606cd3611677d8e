package rpki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"hash"
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
//
// A check the memo knows costs its digest and one map lookup. Only the
// checks it does not know look up their key's table, once per run of
// checks under one key (a block's ROAs mostly share a signer).
func (m *VerdictMemo) verifyBatch(checks []sigCheck, tally *sigTally) {
	sc := batchScratches.Get().(*batchScratch)
	defer sc.put()
	keys := slices.Grow(sc.keys[:0], len(checks))[:len(checks)]
	todo := sc.todo[:0]
	for i := range checks {
		checks[i].ok = false
		if len(checks[i].pub) != ed25519.PublicKeySize {
			continue
		}
		todo = append(todo, i)
		if m != nil {
			keys[i] = sc.verdictKey(checks[i])
		}
	}
	// Under the lock: answer what the memo knows and find the tables of
	// the rest.
	tables := slices.Grow(sc.tables[:0], len(checks))[:len(checks)]
	hits := int64(len(todo))
	if m != nil {
		m.mu.Lock()
		todo = slices.DeleteFunc(todo, func(i int) bool {
			ok, known := m.verdicts[keys[i]]
			checks[i].ok = ok
			return known
		})
		var last []byte
		var table *edwards25519.PublicKey
		for _, i := range todo {
			if pub := checks[i].pub; !bytes.Equal(pub, last) {
				last, table = pub, m.keys[[ed25519.PublicKeySize]byte(pub)]
			}
			tables[i] = table
		}
		m.mu.Unlock()
	}
	hits -= int64(len(todo))

	batch, batchAt := sc.batch[:0], sc.batchAt[:0]
	for _, i := range todo {
		c := &checks[i]
		if tables[i] != nil {
			batch = append(batch, edwards25519.Check{Key: tables[i], Message: c.payload, Sig: c.sig})
			batchAt = append(batchAt, i)
		} else {
			c.ok = ed25519.Verify(c.pub, c.payload, c.sig)
		}
	}
	ok := slices.Grow(sc.ok[:0], len(batch))[:len(batch)]
	edwards25519.VerifyBatch(batch, ok)
	for j, i := range batchAt {
		checks[i].ok = ok[j]
	}

	if m != nil && len(todo) > 0 {
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
	sc.keys, sc.todo, sc.tables, sc.batch, sc.batchAt, sc.ok = keys, todo, tables, batch, batchAt, ok
}

// batchScratch is verifyBatch's reusable scratch: the checks' memo keys,
// the unanswered ones, their tables and batch, and one SHA-256 hasher
// with its buffers.
type batchScratch struct {
	keys    [][sha256.Size]byte
	todo    []int
	tables  []*edwards25519.PublicKey
	batch   []edwards25519.Check
	batchAt []int
	ok      []bool
	h       hash.Hash
	frame   [8]byte // a payload's length
	sum     []byte
}

var batchScratches = sync.Pool{New: func() any { return &batchScratch{h: sha256.New()} }}

// put drops the scratch's references to tables and messages and hands it
// back.
func (sc *batchScratch) put() {
	clear(sc.tables)
	clear(sc.batch)
	batchScratches.Put(sc)
}

// verdictKey is the memo key of c: a SHA-256 digest of its public key,
// length-framed payload and signature, hashed with the scratch's hasher
// into its buffers. The public key has a fixed size and the payload is
// length-framed, so no two checks share a preimage.
func (sc *batchScratch) verdictKey(c sigCheck) (key [sha256.Size]byte) {
	binary.BigEndian.PutUint64(sc.frame[:], uint64(len(c.payload)))
	sc.h.Reset()
	sc.h.Write(c.pub)
	sc.h.Write(sc.frame[:])
	sc.h.Write(c.payload)
	sc.h.Write(c.sig)
	sc.sum = sc.h.Sum(sc.sum[:0])
	return [sha256.Size]byte(sc.sum)
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
