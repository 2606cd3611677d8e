// Package rpki models the Resource Public Key Infrastructure: per-RIR
// trust anchors, delegated resource certificates, signed Route Origin
// Authorizations (ROAs), and a relying-party validator that walks the
// certificate chain and emits Validated ROA Payloads (VRPs) for use in
// RFC 6811 route origin validation.
//
// Cryptography is real — Ed25519 signatures over a deterministic binary
// encoding — but the X.509/CMS container formats of RFC 6487/6482 are
// replaced by a compact structure of our own. What the analysis pipeline
// needs is preserved exactly: chain validation, validity windows,
// resource containment (a child may only hold resources its issuer
// holds, RFC 6487 §7), max-length semantics, and AS0 ROAs.
package rpki

import (
	"bufio"
	"cmp"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/parallel"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki/edwards25519"
)

// RIR identifies one of the five Regional Internet Registries, each of
// which anchors its own RPKI tree.
type RIR uint8

// The five RIRs in the order the paper lists them.
const (
	AFRINIC RIR = iota
	APNIC
	ARIN
	LACNIC
	RIPE
)

// AllRIRs lists every RIR.
var AllRIRs = []RIR{AFRINIC, APNIC, ARIN, LACNIC, RIPE}

// String returns the registry's conventional name.
func (r RIR) String() string {
	switch r {
	case AFRINIC:
		return "AFRINIC"
	case APNIC:
		return "APNIC"
	case ARIN:
		return "ARIN"
	case LACNIC:
		return "LACNIC"
	case RIPE:
		return "RIPE"
	default:
		return fmt.Sprintf("RIR(%d)", uint8(r))
	}
}

// Certificate is a resource certificate: a public key bound to a set of
// IP resources by the issuer's signature. IssuerName == SubjectName and a
// self-signature identify a trust-anchor certificate.
type Certificate struct {
	SubjectName string
	IssuerName  string
	PublicKey   ed25519.PublicKey
	Resources   []netx.Prefix
	NotBefore   time.Time
	NotAfter    time.Time
	Signature   []byte
}

// payload returns the byte string that is signed: every field except the
// signature, deterministically encoded.
func (c *Certificate) payload() []byte {
	b := make([]byte, 0, 4+len("cert")+4+len(c.SubjectName)+4+len(c.IssuerName)+4+len(c.PublicKey)+
		4+len(c.Resources)*(4+maxPrefixText)+16)
	b = appendString(b, "cert")
	b = appendString(b, c.SubjectName)
	b = appendString(b, c.IssuerName)
	b = appendString(b, string(c.PublicKey))
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.Resources)))
	for _, p := range c.Resources {
		b = appendPrefix(b, p)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotBefore.Unix()))
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotAfter.Unix()))
	return b
}

// ROAPrefix is one (prefix, max length) entry inside a ROA.
type ROAPrefix struct {
	Prefix    netx.Prefix
	MaxLength int
}

// ROA is a signed Route Origin Authorization: the holder of SignerName's
// certificate authorizes ASN to originate the listed prefixes.
type ROA struct {
	SignerName string
	ASN        uint32
	Prefixes   []ROAPrefix
	NotBefore  time.Time
	NotAfter   time.Time
	Signature  []byte
}

func (r *ROA) payload() []byte {
	b := make([]byte, 0, 4+len("roa")+4+len(r.SignerName)+8+len(r.Prefixes)*(4+maxPrefixText+4)+16)
	b = appendString(b, "roa")
	b = appendString(b, r.SignerName)
	b = binary.BigEndian.AppendUint32(b, r.ASN)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Prefixes)))
	for _, p := range r.Prefixes {
		b = appendPrefix(b, p.Prefix)
		b = binary.BigEndian.AppendUint32(b, uint32(p.MaxLength))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(r.NotBefore.Unix()))
	b = binary.BigEndian.AppendUint64(b, uint64(r.NotAfter.Unix()))
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// maxPrefixText is the longest prefix text: a full IPv6 address and /128.
const maxPrefixText = len("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128")

// appendPrefix appends p.String() framed as appendString frames it,
// writing the text in place instead of allocating it.
func appendPrefix(b []byte, p netx.Prefix) []byte {
	at := len(b)
	b = p.AppendTo(append(b, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// CA is a certification authority: a certificate plus its private key.
// Trust anchors and delegated CAs are both CAs; only the provisioning
// differs.
type CA struct {
	Cert *Certificate
	key  ed25519.PrivateKey
}

// NewTrustAnchor creates a self-signed trust anchor for a RIR holding the
// given resources for the validity window.
func NewTrustAnchor(rir RIR, resources []netx.Prefix, notBefore, notAfter time.Time) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("rpki: generate trust anchor key: %w", err)
	}
	name := rir.String()
	cert := &Certificate{
		SubjectName: name,
		IssuerName:  name,
		PublicKey:   pub,
		Resources:   resources,
		NotBefore:   notBefore,
		NotAfter:    notAfter,
	}
	cert.Signature = sign(priv, cert.payload())
	return &CA{Cert: cert, key: priv}, nil
}

// IssueCA issues a delegated CA certificate to subject for a subset of
// the issuer's resources. Resource containment is enforced at issuance
// and re-checked by the relying party.
func (ca *CA) IssueCA(subject string, resources []netx.Prefix, notBefore, notAfter time.Time) (*CA, error) {
	for _, p := range resources {
		if !coveredByAny(p, ca.Cert.Resources) {
			return nil, fmt.Errorf("rpki: %s cannot issue %s: resource %s not held", ca.Cert.SubjectName, subject, p)
		}
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("rpki: generate CA key: %w", err)
	}
	cert := &Certificate{
		SubjectName: subject,
		IssuerName:  ca.Cert.SubjectName,
		PublicKey:   pub,
		Resources:   resources,
		NotBefore:   notBefore,
		NotAfter:    notAfter,
	}
	cert.Signature = sign(ca.key, cert.payload())
	return &CA{Cert: cert, key: priv}, nil
}

// SignROA signs a ROA authorizing asn to originate the prefixes: NewROA
// then Sign.
func (ca *CA) SignROA(asn uint32, prefixes []ROAPrefix, notBefore, notAfter time.Time) (*ROA, error) {
	roa, err := ca.NewROA(asn, prefixes, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	ca.Sign(roa)
	return roa, nil
}

// NewROA builds the ROA SignROA returns, without its signature, for a
// publisher that signs many at once. The ROA prefixes must be covered by
// the CA's resources; max lengths are validated against each prefix's
// family.
func (ca *CA) NewROA(asn uint32, prefixes []ROAPrefix, notBefore, notAfter time.Time) (*ROA, error) {
	for _, p := range prefixes {
		if !p.Prefix.IsValid() {
			return nil, fmt.Errorf("rpki: ROA with invalid prefix")
		}
		maxBits := 32
		if p.Prefix.Is6() {
			maxBits = 128
		}
		if p.MaxLength < p.Prefix.Bits() || p.MaxLength > maxBits {
			return nil, fmt.Errorf("rpki: ROA prefix %s: bad max length %d", p.Prefix, p.MaxLength)
		}
		if !coveredByAny(p.Prefix, ca.Cert.Resources) {
			return nil, fmt.Errorf("rpki: %s does not hold %s", ca.Cert.SubjectName, p.Prefix)
		}
	}
	return &ROA{
		SignerName: ca.Cert.SubjectName,
		ASN:        asn,
		Prefixes:   append([]ROAPrefix(nil), prefixes...),
		NotBefore:  notBefore,
		NotAfter:   notAfter,
	}, nil
}

// Sign sets the signatures of ROAs built by ca.NewROA, as one batch. A
// signature is a function of the key and the ROA's fields only, so ROAs
// may be signed in any order and batching, or concurrently.
func (ca *CA) Sign(roas ...*ROA) {
	payloads := make([][]byte, len(roas))
	for i, roa := range roas {
		payloads[i] = roa.payload()
	}
	for i, sig := range edwards25519.SignBatch(ca.key, payloads) {
		roas[i].Signature = sig
	}
}

// sign returns key's signature of payload: a batch of one.
func sign(key ed25519.PrivateKey, payload []byte) []byte {
	return edwards25519.SignBatch(key, [][]byte{payload})[0]
}

func coveredByAny(p netx.Prefix, holders []netx.Prefix) bool {
	for _, h := range holders {
		if h.Covers(p) {
			return true
		}
	}
	return false
}

// Repository is the published object store a relying party fetches:
// certificates and ROAs keyed by subject/signer name.
type Repository struct {
	certs []*Certificate
	roas  []*ROA
}

// AddCert publishes a certificate.
func (r *Repository) AddCert(c *Certificate) { r.certs = append(r.certs, c) }

// AddROA publishes a ROA.
func (r *Repository) AddROA(roa *ROA) { r.roas = append(r.roas, roa) }

// NumCerts returns the number of published certificates.
func (r *Repository) NumCerts() int { return len(r.certs) }

// NumROAs returns the number of published ROAs.
func (r *Repository) NumROAs() int { return len(r.roas) }

// ROAs returns the published ROAs in publication order. The slice is
// shared with the repository; callers must treat it as read-only.
func (r *Repository) ROAs() []*ROA { return r.roas }

// ReplaceROA swaps the i'th published ROA in place. Scenario forks use
// it to re-home ROAs under a different (e.g. expired) issuing CA
// without perturbing publication order.
func (r *Repository) ReplaceROA(i int, roa *ROA) { r.roas[i] = roa }

// Clone returns a repository with independent publication lists sharing
// the (immutable) published objects, so a derived world can publish and
// replace objects without mutating the original.
func (r *Repository) Clone() *Repository {
	return &Repository{
		certs: append([]*Certificate(nil), r.certs...),
		roas:  append([]*ROA(nil), r.roas...),
	}
}

// VRP is a Validated ROA Payload: one authorization extracted from a ROA
// whose chain validated.
type VRP struct {
	Prefix    netx.Prefix
	ASN       uint32
	MaxLength int
}

// Authorization converts the VRP into the rov vocabulary.
func (v VRP) Authorization() rov.Authorization {
	return rov.Authorization{Prefix: v.Prefix, ASN: v.ASN, MaxLength: v.MaxLength}
}

// ValidationStats summarizes a relying-party run.
type ValidationStats struct {
	CertsValid    int
	CertsRejected int
	ROAsValid     int
	ROAsRejected  int
}

// RelyingParty validates a repository against a set of trust anchors at a
// point in time, as RP software (Routinator, rpki-client, FORT) does.
type RelyingParty struct {
	anchors map[string]*Certificate
	// memo, when non-nil, remembers signature verdicts across runs; nil
	// verifies every signature on every run.
	memo *VerdictMemo
	// Now is the evaluation time for validity windows. The zero value
	// means time.Now() at Run.
	Now time.Time
	// ROAVisibilityLag models the management-plane delay between ROA
	// creation and relying-party visibility (publication, fetch, and
	// validation run cadence): a ROA is invisible until
	// NotBefore+ROAVisibilityLag even though its own validity window
	// already contains the evaluation time. Zero means publication is
	// instantaneous, the historical behavior.
	ROAVisibilityLag time.Duration
}

// NewRelyingParty returns a relying party trusting the given anchors.
// Anchor certificates must be self-signed; invalid anchors are rejected.
// It keeps no state between runs: every signature is verified on every
// Run.
func NewRelyingParty(anchors ...*Certificate) (*RelyingParty, error) {
	return NewRelyingPartyMemo(nil, anchors...)
}

// NewRelyingPartyMemo is NewRelyingParty for a relying party that keeps
// its signature verdicts in memo, as RP software keeps validated state
// between runs. A nil memo is NewRelyingParty.
func NewRelyingPartyMemo(memo *VerdictMemo, anchors ...*Certificate) (*RelyingParty, error) {
	rp := &RelyingParty{anchors: make(map[string]*Certificate), memo: memo}
	for _, a := range anchors {
		if a.SubjectName != a.IssuerName {
			return nil, fmt.Errorf("rpki: anchor %s is not self-issued", a.SubjectName)
		}
		if !memo.verify(a.PublicKey, a.payload(), a.Signature, nil) {
			return nil, fmt.Errorf("rpki: anchor %s has a bad self-signature", a.SubjectName)
		}
		rp.anchors[a.SubjectName] = a
	}
	return rp, nil
}

// Run validates every object in repo and returns the VRPs from valid
// ROAs, sorted by prefix then ASN then max length.
//
// A certificate is valid when its chain reaches a trust anchor with every
// signature verifying, every validity window containing the evaluation
// time, and every certificate's resources covered by its issuer's. A ROA
// is valid when its signer's certificate is valid, its own signature and
// window check out, and its prefixes are covered by the signer's
// resources.
//
// The run has two phases. The certificate walk is serial, over the few
// objects a repository's CAs amount to. It ends in a table of valid
// signers that nothing writes again, so the ROA checks — where the
// signatures are — fan out over workers goroutines (≤ 0 means one per
// CPU) in blocks of roaBlock, each ROA into its own slot, and are merged
// in publication order: the result does not depend on the worker count.
// Between the phases a memo prepares the keys busyKeys lists. A context
// done before every ROA was checked yields its cause and no VRPs at all;
// a partial set would silently turn Valid and Invalid routes into
// NotFound. A context already done starts nothing, not even the walk.
// The run is one "rpki.run" span, with its signature hits and misses,
// the tables it built and the point kernel its checks ran on
// (edwards25519.Kernel) as attributes.
func (rp *RelyingParty) Run(ctx context.Context, repo *Repository, workers int) ([]VRP, ValidationStats, error) {
	if ctx.Err() != nil {
		return nil, ValidationStats{}, fmt.Errorf("rpki: relying party run: %w", context.Cause(ctx))
	}
	ctx, span := obsv.StartSpan(ctx, "rpki.run", obsv.KV("roas", len(repo.roas)))
	defer span.End()
	now := rp.Now
	if now.IsZero() {
		now = time.Now()
	}
	var tally sigTally
	signers, stats := rp.validSigners(repo, now, &tally)
	tables := rp.memo.prepareKeys(rp.busyKeys(repo, signers))

	valid := make([]bool, len(repo.roas))
	blocks := (len(repo.roas) + roaBlock - 1) / roaBlock
	err := parallel.ForEachCtx(ctx, blocks, workers, func(b int) {
		lo, hi := b*roaBlock, min((b+1)*roaBlock, len(repo.roas))
		rp.validROAs(ctx, repo.roas[lo:hi], now, signers, valid[lo:hi], &tally)
	})
	if err == nil && ctx.Err() != nil { // a block stopped between its ROAs
		err = context.Cause(ctx)
	}
	span.SetAttr("hits", tally.hits.Load())
	span.SetAttr("misses", tally.misses.Load())
	span.SetAttr("tables", tables)
	span.SetAttr("kernel", edwards25519.Kernel())
	if err != nil {
		return nil, ValidationStats{}, fmt.Errorf("rpki: relying party run: %w", err)
	}

	var vrps []VRP
	for i, roa := range repo.roas {
		if !valid[i] {
			stats.ROAsRejected++
			continue
		}
		stats.ROAsValid++
		for _, p := range roa.Prefixes {
			vrps = append(vrps, VRP{Prefix: p.Prefix, ASN: roa.ASN, MaxLength: p.MaxLength})
		}
	}
	slices.SortFunc(vrps, func(a, b VRP) int {
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ASN, b.ASN); c != 0 {
			return c
		}
		return cmp.Compare(a.MaxLength, b.MaxLength)
	})
	return vrps, stats, nil
}

// roaBlock is how many ROAs one item of Run's fan-out checks, and so the
// most signatures one edwards25519.VerifyBatch shares an inversion over.
const roaBlock = 64

// busyKeys lists the first candidate key of each signer that the
// repository lists at least prepareAt ROAs under: the keys worth a table
// before the run's first check. A memo-less run lists none.
func (rp *RelyingParty) busyKeys(repo *Repository, signers map[string][]*Certificate) []ed25519.PublicKey {
	if rp.memo == nil {
		return nil
	}
	counts := make(map[string]int)
	var busy []ed25519.PublicKey
	for _, roa := range repo.roas {
		if counts[roa.SignerName]++; counts[roa.SignerName] == prepareAt && len(signers[roa.SignerName]) > 0 {
			busy = append(busy, signers[roa.SignerName][0].PublicKey)
		}
	}
	return busy
}

// maxChainDepth is how many issuances below its trust anchor a
// certificate may sit: the anchor is depth 0, a certificate it issued
// depth 1. No real chain comes close; the cap bounds a hostile one.
const maxChainDepth = 33

// validSigners is the serial phase of Run: it derives, top-down from the
// valid anchors, the certificates that may sign at now and returns them
// by subject name — a valid anchor first, then valid published candidates
// in publication order — with the certificate counts.
//
// The derivation is breadth-first over an issuer→children index, so a
// certificate's depth is that of its shortest valid chain and its verdict
// depends on the chains alone, never on publication order: a renewal or
// cross-signing diamond validates through whichever issuer verifies, a
// cycle with no path to an anchor is never reached, and a certificate
// more than maxChainDepth issuances below its anchor is never accepted.
func (rp *RelyingParty) validSigners(repo *Repository, now time.Time, tally *sigTally) (map[string][]*Certificate, ValidationStats) {
	inWindow := func(c *Certificate) bool { return !now.Before(c.NotBefore) && !now.After(c.NotAfter) }

	names := make([]string, 0, len(rp.anchors))
	for name := range rp.anchors {
		names = append(names, name)
	}
	slices.Sort(names)
	valid := make(map[*Certificate]bool)
	signers := make(map[string][]*Certificate)
	var level []*Certificate
	for _, name := range names {
		a := rp.anchors[name]
		if rp.memo.verify(a.PublicKey, a.payload(), a.Signature, tally) && inWindow(a) {
			valid[a] = true
			signers[name] = []*Certificate{a}
			level = append(level, a)
		}
	}

	// A published anchor is settled above, valid or not; every other
	// certificate is a candidate child of each certificate its issuer
	// names, duplicate subjects included.
	children := make(map[string][]*Certificate)
	for _, c := range repo.certs {
		if rp.anchors[c.SubjectName] != c {
			children[c.IssuerName] = append(children[c.IssuerName], c)
		}
	}
	for depth := 1; depth <= maxChainDepth && len(level) > 0; depth++ {
		var next []*Certificate
		for _, iss := range level {
			for _, c := range children[iss.SubjectName] {
				if valid[c] || !inWindow(c) || !rp.memo.verify(iss.PublicKey, c.payload(), c.Signature, tally) {
					continue
				}
				covered := true
				for _, p := range c.Resources {
					if !coveredByAny(p, iss.Resources) {
						covered = false
						break
					}
				}
				if covered {
					valid[c] = true
					next = append(next, c)
				}
			}
		}
		level = next
	}

	var stats ValidationStats
	for _, c := range repo.certs {
		if valid[c] {
			stats.CertsValid++
			signers[c.SubjectName] = append(signers[c.SubjectName], c)
		} else {
			stats.CertsRejected++
		}
	}
	return signers, stats
}

// validROAs is one item of Run's parallel phase: it sets valid[i] for
// roas[i], reading signers and writing nothing but the verdict memo. ctx
// is checked before each ROA; a done ctx stops the block, and Run.
//
// Each ROA's first candidate signer is verified in one batch for the
// block. A ROA whose first candidate fails, by signature or containment,
// falls back to the next candidates one at a time.
func (rp *RelyingParty) validROAs(ctx context.Context, roas []*ROA, now time.Time, signers map[string][]*Certificate, valid []bool, tally *sigTally) {
	checks := make([]sigCheck, 0, len(roas))
	at := make([]int, 0, len(roas))
	for i, roa := range roas {
		if ctx.Err() != nil {
			return
		}
		if now.Before(roa.NotBefore) || now.After(roa.NotAfter) {
			continue
		}
		if rp.ROAVisibilityLag > 0 && now.Before(roa.NotBefore.Add(rp.ROAVisibilityLag)) {
			continue // created, but not yet visible to this relying party
		}
		if cands := signers[roa.SignerName]; len(cands) > 0 {
			checks = append(checks, sigCheck{pub: cands[0].PublicKey, payload: roa.payload(), sig: roa.Signature})
			at = append(at, i)
		}
	}
	rp.memo.verifyBatch(checks, tally)
	for j, i := range at {
		roa := roas[i]
		for n, signer := range signers[roa.SignerName] {
			verified := checks[j].ok
			if n > 0 {
				verified = rp.memo.verify(signer.PublicKey, checks[j].payload, roa.Signature, tally)
			}
			if verified && covers(signer, roa) {
				valid[i] = true
				break
			}
		}
	}
}

// covers reports whether signer's resources cover every prefix of roa.
func covers(signer *Certificate, roa *ROA) bool {
	for _, p := range roa.Prefixes {
		if !coveredByAny(p.Prefix, signer.Resources) {
			return false
		}
	}
	return true
}

// BuildIndex loads VRPs into a fresh rov.Index for route origin
// validation. VRPs produced by Run are structurally valid, so errors
// indicate a programming bug and are returned for the caller to surface.
func BuildIndex(vrps []VRP) (*rov.Index, error) {
	ix := rov.NewIndex()
	ix.Grow(len(vrps))
	for _, v := range vrps {
		if err := ix.Add(v.Authorization()); err != nil {
			return nil, fmt.Errorf("rpki: BuildIndex: %w", err)
		}
	}
	return ix, nil
}

// WriteVRPCSV writes VRPs in the RIPE NCC validated-ROA archive format:
// a header line then "URI,ASN,IP Prefix,Max Length,Not Before,Not After"
// rows. URI and the validity columns carry placeholder values: consumers
// of the archives (including this repository's pipeline) key on the
// middle three columns.
func WriteVRPCSV(w io.Writer, vrps []VRP) error {
	if _, err := io.WriteString(w, "URI,ASN,IP Prefix,Max Length,Not Before,Not After\n"); err != nil {
		return err
	}
	for _, v := range vrps {
		if _, err := fmt.Fprintf(w, "rsync://rpki.example/repo/%s.roa,AS%d,%s,%d,,\n",
			v.Prefix.Addr(), v.ASN, v.Prefix, v.MaxLength); err != nil {
			return err
		}
	}
	return nil
}

// Parsing limits for ReadVRPCSV. VRP archives come over the network
// from relying parties and mirrors; a malformed or hostile archive must
// produce an explicit error, never unbounded memory growth.
const (
	// MaxVRPCSVLine is the longest accepted line in bytes. Real rows are
	// well under 200 bytes.
	MaxVRPCSVLine = 4096
	// MaxVRPCSVFields is the most comma-separated fields accepted per
	// line. The format defines six.
	MaxVRPCSVFields = 64
	// MaxVRPCSVRows caps the number of data rows per archive. The global
	// RPKI publishes ~500k VRPs; 8M leaves an order of magnitude of
	// headroom while bounding a decompression-bomb-style feed.
	MaxVRPCSVRows = 8 << 20
)

// ReadVRPCSV parses the archive format written by WriteVRPCSV (and, for
// the columns we use, RIPE's real archives). Input is read as a stream
// and validated strictly: lines over MaxVRPCSVLine bytes, rows with
// fewer than 4 or more than MaxVRPCSVFields fields, non-numeric ASN or
// max-length tokens, max lengths outside [prefix length, address
// family bits], and archives over MaxVRPCSVRows rows are all explicit
// errors naming the offending line.
func ReadVRPCSV(r io.Reader) ([]VRP, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), MaxVRPCSVLine)
	var vrps []VRP
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if lineNo == 1 || line == "" { // header or blank
			continue
		}
		if len(vrps) >= MaxVRPCSVRows {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: more than %d rows", lineNo, MaxVRPCSVRows)
		}
		fields := splitCSV(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: want >=4 fields, got %d", lineNo, len(fields))
		}
		if len(fields) > MaxVRPCSVFields {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: %d fields exceeds cap %d", lineNo, len(fields), MaxVRPCSVFields)
		}
		asn, err := parseASNToken(fields[1])
		if err != nil {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: %w", lineNo, err)
		}
		p, err := netx.ParsePrefix(fields[2])
		if err != nil {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: %w", lineNo, err)
		}
		maxLen, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: bad max length %q", lineNo, fields[3])
		}
		famBits := 32
		if p.Is6() {
			famBits = 128
		}
		if maxLen < p.Bits() || maxLen > famBits {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: max length %d outside [%d,%d] for %s",
				lineNo, maxLen, p.Bits(), famBits, p)
		}
		vrps = append(vrps, VRP{Prefix: p, ASN: asn, MaxLength: maxLen})
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("rpki: VRP CSV line %d: line exceeds %d bytes", lineNo+1, MaxVRPCSVLine)
		}
		return nil, err
	}
	return vrps, nil
}

func parseASNToken(s string) (uint32, error) {
	if len(s) > 2 && (s[0] == 'A' || s[0] == 'a') && (s[1] == 'S' || s[1] == 's') {
		s = s[2:]
	}
	asn, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad ASN %q", s)
	}
	return uint32(asn), nil
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
