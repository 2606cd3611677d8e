package rpki

import (
	"context"
	"crypto/ed25519"
	"crypto/sha512"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"manrsmeter/internal/rpki/edwards25519"
)

// useLanes is edwards25519's one kernel seam, so that the verifier
// tests here run on the lane kernel, where this build and CPU have it,
// and on the scalar path.
//
//go:linkname useLanes manrsmeter/internal/rpki/edwards25519.useLanes
var useLanes bool

// laneKernel is whether edwards25519 selected its lane kernel.
var laneKernel = edwards25519.Kernel() == "ifma8"

// forEachKernel runs f with each kernel selected in turn.
func forEachKernel(f func()) {
	defer func(saved bool) { useLanes = saved }(useLanes)
	for _, lanes := range []bool{true, false} {
		if lanes && !laneKernel {
			continue
		}
		useLanes = lanes
		f()
	}
}

var (
	fieldP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	// groupL is ℓ = 2²⁵² + 27742317777372353535851937790883648493.
	groupL, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
)

func le32(n *big.Int) []byte {
	b := n.FillBytes(make([]byte, 32))
	slices.Reverse(b)
	return b
}

func leInt(b []byte) *big.Int {
	be := slices.Clone(b)
	slices.Reverse(be)
	return new(big.Int).SetBytes(be)
}

// edgeKeys are public-key encodings where decoders part ways: y = 0, 1,
// p−1, p, p+1 and 2²⁵⁵−1, each with either sign bit. y = 0, 1 and p−1
// are points of small order; p and p+1 are non-canonical encodings of 0
// and 1, as is x = 0 with the sign bit set. crypto/ed25519 accepts each
// of these that lies on the curve.
func edgeKeys() [][]byte {
	one := big.NewInt(1)
	var keys [][]byte
	for _, y := range []*big.Int{
		big.NewInt(0), one, new(big.Int).Sub(fieldP, one), fieldP, new(big.Int).Add(fieldP, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 255), one),
	} {
		neg := le32(y)
		neg[31] |= 0x80
		keys = append(keys, le32(y), neg)
	}
	return keys
}

// edgeSignatures are signatures over message that exercise each
// acceptance rule. seed's key a·B signs message; R = a·B with S = a mod ℓ
// is what a small-order key accepts whenever k kills it, and R = 1
// (the identity) with S = 0 likewise; S + ℓ, a high bit in sig[63], a
// non-canonical R and a wrong length must all be refused.
func edgeSignatures(seed, message []byte) [][]byte {
	priv := ed25519.NewKeyFromSeed(seed)
	h := sha512.Sum512(seed)
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	s := new(big.Int).Mod(leInt(h[:32]), groupL)
	valid := ed25519.Sign(priv, message)
	forged := append(slices.Clone(priv.Public().(ed25519.PublicKey)), le32(s)...)
	sPlusL := append(slices.Clone(valid[:32]), le32(new(big.Int).Add(leInt(valid[32:]), groupL))...)
	highBit := slices.Clone(valid)
	highBit[63] |= 0x80
	identity := le32(big.NewInt(1))
	identityPlusP := le32(new(big.Int).Add(fieldP, big.NewInt(1)))
	return [][]byte{
		valid, forged, sPlusL, highBit,
		append(slices.Clone(identity), make([]byte, 32)...),
		append(slices.Clone(identityPlusP), make([]byte, 32)...),
		append(slices.Clone(identityPlusP), le32(s)...),
		valid[:63], append(slices.Clone(valid), 0),
	}
}

// preparedVerify is the verdict under pub's table; a key that gets none
// rejects every signature.
func preparedVerify(pub, message, sig []byte) bool {
	k, err := edwards25519.NewPublicKey(pub)
	return err == nil && verifyOne(k, message, sig)
}

// verifyOne is a batch of one under k.
func verifyOne(k *edwards25519.PublicKey, message, sig []byte) bool {
	var ok [1]bool
	edwards25519.VerifyBatch([]edwards25519.Check{{Key: k, Message: message, Sig: sig}}, ok[:])
	return ok[0]
}

// tablesBuilt returns how many tables the memo built and how many of its
// keys hold one.
func tablesBuilt(m *VerdictMemo) (slots, held int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range m.keys {
		if k != nil {
			held++
		}
	}
	return m.tables, held
}

// Each edge key and two ordinary ones, under each edge signature over
// several messages: crypto/ed25519, the prepared key alone, a memo
// verifying under the key's table and the memo-less relying party's
// check all agree; every key but y = 18 accepts something.
func TestEdgeEncodingsMatchStdlib(t *testing.T) {
	keys := edgeKeys()
	for i := byte(1); i <= 2; i++ {
		keys = append(keys, ed25519.NewKeyFromSeed(append(make([]byte, 31), i)).Public().(ed25519.PublicKey))
	}
	for ki, pub := range keys {
		memo := NewVerdictMemo(1 << 12)
		memo.prepareKeys([]ed25519.PublicKey{pub})
		_, decodeErr := edwards25519.NewPublicKey(pub)
		wantTables := 0
		if decodeErr == nil {
			wantTables = 1
		}
		if slots, held := tablesBuilt(memo); slots != wantTables || held != wantTables {
			t.Fatalf("key %d %x: %d table slots, %d held, want %d", ki, pub, slots, held, wantTables)
		}
		accepted := 0
		for seed := byte(1); seed <= 2; seed++ {
			for m := 0; m < 8; m++ {
				message := []byte(fmt.Sprintf("message %d", m))
				for si, sig := range edgeSignatures(append(make([]byte, 31), seed), message) {
					want := ed25519.Verify(pub, message, sig)
					got := [3]bool{preparedVerify(pub, message, sig), memo.verify(pub, message, sig, nil), (*VerdictMemo)(nil).verify(pub, message, sig, nil)}
					if got != [3]bool{want, want, want} {
						t.Fatalf("key %d %x, seed %d, message %d, signature %d: stdlib %t, prepared/memo/memo-less %v", ki, pub, seed, m, si, want, got)
					}
					if want {
						accepted++
					}
				}
			}
		}
		// y = 2²⁵⁵−1 is y = 18, a point of large order that no edge
		// signature can satisfy; every other key accepts some.
		if largeOrderEdge := ki == 10 || ki == 11; (accepted == 0) != largeOrderEdge {
			t.Errorf("key %d %x accepted %d signatures", ki, pub, accepted)
		}
	}
}

// Random keys, messages and signatures, valid and mutated: the prepared
// key's verdict is crypto/ed25519's on every one.
func TestPreparedVerifyMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var valid, total int
	for key := 0; key < 300; key++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		priv := ed25519.NewKeyFromSeed(seed)
		pub := priv.Public().(ed25519.PublicKey)
		prepared, err := edwards25519.NewPublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			message := make([]byte, rng.Intn(200))
			rng.Read(message)
			sig := ed25519.Sign(priv, message)
			switch i % 5 {
			case 1:
				sig[rng.Intn(len(sig))] ^= 1 << rng.Intn(8)
			case 2:
				if len(message) > 0 {
					message[rng.Intn(len(message))] ^= 1
				}
			case 3:
				copy(sig[32:], le32(new(big.Int).Add(leInt(sig[32:]), groupL)))
			case 4:
				rng.Read(sig)
				sig[63] &= 15
			}
			want := ed25519.Verify(pub, message, sig)
			if got := verifyOne(prepared, message, sig); got != want {
				t.Fatalf("key %d signature %d: prepared %t, stdlib %t", key, i, got, want)
			}
			total++
			if want {
				valid++
			}
		}
	}
	if valid < total/5 || valid == total {
		t.Fatalf("%d of %d signatures valid: the mutations are not exercising the verifier", valid, total)
	}
}

// FuzzPreparedVerifyMatchesStdlib compares the prepared-key verifier, on
// each kernel, with crypto/ed25519.Verify. The key is seed's, an edge
// encoding, or seed's bytes taken as an encoding; the signature is sig's
// bytes or one of the edge signatures over message.
func FuzzPreparedVerifyMatchesStdlib(f *testing.F) {
	for k := 0; k <= len(edgeKeys())+1; k++ {
		for s := 0; s <= len(edgeSignatures(make([]byte, 32), nil)); s++ {
			f.Add([]byte{byte(k)}, uint8(k), []byte("message"), make([]byte, 64), uint8(s))
		}
	}
	f.Fuzz(func(t *testing.T, seed []byte, keyKind uint8, message, sig []byte, sigKind uint8) {
		seed = append(seed, make([]byte, ed25519.SeedSize)...)[:ed25519.SeedSize]
		var pub []byte
		switch edges := edgeKeys(); {
		case keyKind == 0:
			pub = ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		case int(keyKind) <= len(edges):
			pub = edges[keyKind-1]
		default:
			pub = seed
		}
		if sigKind > 0 {
			sigs := edgeSignatures(seed, message)
			sig = sigs[int(sigKind-1)%len(sigs)]
		}
		want := ed25519.Verify(pub, message, sig)
		forEachKernel(func() {
			if got := preparedVerify(pub, message, sig); got != want {
				t.Fatalf("%s kernel, pub %x sig %x: prepared %t, stdlib %t", edwards25519.Kernel(), pub, sig, got, want)
			}
		})
		// Batched between two signatures that verify, under another key
		// and under pub's own table: the same verdict.
		other := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
		good := triple{other.Public().(ed25519.PublicKey), message, ed25519.Sign(other, message)}
		if got := batchVerdicts(t, []triple{good, {pub, message, sig}, good}); got[1] != want || !got[0] || !got[2] {
			t.Fatalf("pub %x sig %x: batched %v, stdlib %t", pub, sig, got, want)
		}
	})
}

// triple is one signature check: sig over msg under pub.
type triple struct{ pub, msg, sig []byte }

// batchVerdicts verifies batch as one edwards25519.VerifyBatch over
// prepared keys, on each kernel, and as one batch of a memo that
// prepared them first, and fails unless each agrees with
// crypto/ed25519.Verify on every triple. A key that gets no table must
// be one crypto/ed25519 rejects everything under; it sits out the direct
// batch. It returns the verdicts.
func batchVerdicts(t testing.TB, batch []triple) []bool {
	t.Helper()
	want := make([]bool, len(batch))
	var checks []edwards25519.Check
	var at []int
	var pubs []ed25519.PublicKey
	for i, c := range batch {
		want[i] = ed25519.Verify(c.pub, c.msg, c.sig)
		pubs = append(pubs, c.pub)
		if k, err := edwards25519.NewPublicKey(c.pub); err == nil {
			checks = append(checks, edwards25519.Check{Key: k, Message: c.msg, Sig: c.sig})
			at = append(at, i)
		} else if want[i] {
			t.Fatalf("check %d: key %x has no table, but crypto/ed25519 accepts %x", i, c.pub, c.sig)
		}
	}
	forEachKernel(func() {
		ok := make([]bool, len(checks))
		for i := range ok {
			ok[i] = true // a verdict left unset would read as accepted
		}
		edwards25519.VerifyBatch(checks, ok)
		for j, i := range at {
			if ok[j] != want[i] {
				t.Fatalf("%s kernel, check %d of %d, key %x, sig %x: batched %t, stdlib %t", edwards25519.Kernel(), i, len(batch), batch[i].pub, batch[i].sig, ok[j], want[i])
			}
		}
	})

	memo := NewVerdictMemo(1 << 16)
	memo.prepareKeys(pubs)
	sigChecks := make([]sigCheck, len(batch))
	for i, c := range batch {
		sigChecks[i] = sigCheck{pub: c.pub, payload: c.msg, sig: c.sig, ok: true}
	}
	memo.verifyBatch(sigChecks, nil)
	for i, c := range sigChecks {
		if c.ok != want[i] {
			t.Fatalf("check %d of %d, key %x, sig %x: memo batch %t, stdlib %t", i, len(batch), c.pub, c.sig, c.ok, want[i])
		}
	}
	return want
}

// signedBatch is n checks under priv, one in every three tampered.
func signedBatch(rng *rand.Rand, priv ed25519.PrivateKey, n int) []triple {
	pub := priv.Public().(ed25519.PublicKey)
	var batch []triple
	for i := 0; i < n; i++ {
		msg := make([]byte, rng.Intn(100))
		rng.Read(msg)
		sig := ed25519.Sign(priv, msg)
		if i%3 == 2 {
			sig[rng.Intn(64)] ^= 1 << rng.Intn(8)
		}
		batch = append(batch, triple{pub, msg, sig})
	}
	return batch
}

// The batched verifiers, edwards25519.VerifyBatch on each kernel and a
// memo's batch, give crypto/ed25519's verdict for every check of a
// batch, whatever else the batch holds: keys mixed across lanes, early
// rejects among accepts inside a group of eight, nothing but rejects,
// sizes about the lane kernel's group of 8 and Run's block of 64, and
// the edge encodings of TestEdgeEncodingsMatchStdlib as the key and as
// R. Run itself checks 1, 63, 64 and 65 ROAs under one key like the
// memo-less oracle, on each kernel.
func TestVerifyBatchTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]ed25519.PrivateKey, 3)
	for i := range keys {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		keys[i] = ed25519.NewKeyFromSeed(seed)
	}
	pub0 := keys[0].Public().(ed25519.PublicKey)
	msg := []byte("object")
	valid := ed25519.Sign(keys[0], msg)
	identityR := le32(big.NewInt(1))
	// Early rejects: short, long, a high bit in sig[63], S + ℓ; one with
	// R the identity, which a verifier that forgets the early reject
	// would find equal to its untouched point's encoding.
	early := [][]byte{
		valid[:63], append(slices.Clone(valid), 0),
		append(slices.Clone(valid[:63]), valid[63]|0x80),
		append(slices.Clone(valid[:32]), le32(new(big.Int).Add(leInt(valid[32:]), groupL))...),
		append(slices.Clone(identityR), append(make([]byte, 31), 0x20)...),
	}
	var mixed, between, rejects []triple
	for i := 0; i < 40; i++ {
		mixed = append(mixed, signedBatch(rng, keys[i%3], 1)...)
	}
	for i, sig := range early {
		between = append(between, triple{pub0, msg, valid}, triple{pub0, msg, sig})
		rejects = append(rejects, triple{pub0, msg, sig}, triple{pub0, []byte("other"), valid})
		if i%2 == 0 {
			between = append(between, triple{pub0, msg, valid})
		}
	}
	edgeA := signedBatch(rng, keys[1], 2)
	for _, pub := range edgeKeys() {
		for _, sig := range edgeSignatures(append(make([]byte, 31), 1), msg) {
			edgeA = append(edgeA, triple{pub, msg, sig})
		}
	}
	// Each edge encoding as R, with S = 0, 1 and 2, under ordinary and
	// edge keys: a small-order key accepts R = [S]B only if R is that
	// point's canonical encoding.
	var edgeR []triple
	for _, r := range edgeKeys() {
		for s := int64(0); s < 3; s++ {
			sig := append(slices.Clone(r), le32(big.NewInt(s))...)
			for _, pub := range append(edgeKeys()[:6], pub0) {
				edgeR = append(edgeR, triple{pub, msg, sig})
			}
		}
	}
	cases := []struct {
		name      string
		batch     []triple
		minAccept int
	}{
		{"mixed keys", mixed, 20},
		{"early rejects between accepts", between, 8},
		{"nothing but rejects", rejects, 0},
		{"edge encodings as A", edgeA, 3},
		{"edge encodings as R", edgeR, 1},
	}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65} {
		cases = append(cases, struct {
			name      string
			batch     []triple
			minAccept int
		}{fmt.Sprintf("%d checks", n), signedBatch(rng, keys[2], n), (n + 2) / 3})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			accepted := 0
			for _, ok := range batchVerdicts(t, tc.batch) {
				if ok {
					accepted++
				}
			}
			if accepted < tc.minAccept || tc.minAccept == 0 && accepted != 0 {
				t.Fatalf("%d of %d checks accepted, want at least %d (none if 0)", accepted, len(tc.batch), tc.minAccept)
			}
		})
	}

	for _, n := range []int{1, 63, 64, 65} {
		t.Run(fmt.Sprintf("run over %d ROAs", n), func(t *testing.T) {
			repo, anchor := oneIssuer(t, n)
			for i, roa := range repo.ROAs() {
				if i%5 == 2 { // not the first or the last, at any n here
					roa.Signature[i%64] ^= 1
				}
			}
			forEachKernel(func() {
				vrps, stats := runWarmAndCold(t, NewVerdictMemo(1<<12), repo, tEval, 0, anchor)
				if want := n - (n+2)/5; len(vrps) != want || stats.ROAsValid != want {
					t.Fatalf("%s kernel: %d VRPs, stats %+v; want %d valid", edwards25519.Kernel(), len(vrps), stats, want)
				}
			})
		})
	}
}

// issuerTree is anchor → 30 CAs → 900 → the rest, n CAs in all, each
// signing one ROA: no key signs more than 31 objects.
func issuerTree(t *testing.T, n int) (*Repository, *Certificate) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	repo := &Repository{}
	level := []*CA{ta}
	for made := 0; made < n; {
		var next []*CA
		for _, iss := range level {
			for j := 0; j < 30 && made < n; j++ {
				ca, err := iss.IssueCA(fmt.Sprintf("CA%d", made), prefixes("10.0.0.0/8"), t0, t1)
				if err != nil {
					t.Fatal(err)
				}
				repo.AddCert(ca.Cert)
				roa, err := ca.SignROA(uint32(made), []ROAPrefix{{Prefix: pfx("10.0.0.0/8"), MaxLength: 8}}, t0, t1)
				if err != nil {
					t.Fatal(err)
				}
				repo.AddROA(roa)
				next = append(next, ca)
				made++
			}
		}
		level = next
	}
	return repo, ta.Cert
}

// oneIssuer is one CA under the anchor signing n ROAs.
func oneIssuer(t *testing.T, n int) (*Repository, *Certificate) {
	ta := newAnchor(t, RIPE, "10.0.0.0/8")
	ca, err := ta.IssueCA("ISP", prefixes("10.0.0.0/8"), t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	repo := &Repository{}
	repo.AddCert(ca.Cert)
	for i := 0; i < n; i++ {
		roa, err := ca.NewROA(uint32(i), []ROAPrefix{{Prefix: pfx("10.0.0.0/8"), MaxLength: 8}}, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		ca.Sign(roa)
		repo.AddROA(roa)
	}
	return repo, ta.Cert
}

// Prepared keys are bounded on hostile shapes: 10k CAs signing one ROA
// each prepare no table, and one CA signing 10k ROAs prepares exactly
// one. A cold run with a memo takes at most 10 % longer than a memo-less
// one on either: the best of three interleaved pairs, measured up to
// three times, since the machine may be shared. A race build checks the
// tables on 1k objects and times nothing.
func TestPreparedKeysBounded(t *testing.T) {
	n, attempts := 10_000, 3
	if raceEnabled {
		n, attempts = 1_000, 0
	}
	for _, tc := range []struct {
		name   string
		build  func(*testing.T, int) (*Repository, *Certificate)
		tables int
	}{{"CAs signing one ROA each", issuerTree, 0}, {"one CA signing every ROA", oneIssuer, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			repo, anchor := tc.build(t, n)
			run := func(memo *VerdictMemo) time.Duration {
				rp, err := NewRelyingPartyMemo(memo, anchor)
				if err != nil {
					t.Fatal(err)
				}
				rp.Now = tEval
				start := time.Now()
				vrps, stats, err := rp.Run(context.Background(), repo, 0)
				if err != nil || len(vrps) != n || stats.ROAsRejected != 0 {
					t.Fatalf("%d VRPs %+v, err %v", len(vrps), stats, err)
				}
				if memo != nil {
					if slots, held := tablesBuilt(memo); slots != tc.tables || held != tc.tables {
						t.Fatalf("%d table slots, %d held, want %d", slots, held, tc.tables)
					}
				}
				return time.Since(start)
			}
			if attempts == 0 {
				run(NewVerdictMemo(1 << 20))
				return
			}
			for attempt := 1; ; attempt++ {
				var stdlib, memo time.Duration = 1 << 62, 1 << 62
				for i := 0; i < 3; i++ {
					stdlib = min(stdlib, run(nil))
					memo = min(memo, run(NewVerdictMemo(1<<20)))
				}
				t.Logf("cold run with a memo %v, memo-less %v", memo, stdlib)
				if memo <= stdlib+stdlib/10 {
					break
				}
				if attempt == attempts {
					t.Fatalf("a cold run with a memo is more than 10 %% slower than a memo-less one in %d measurements", attempts)
				}
			}
		})
	}
}

// A memo builds at most maxTables tables and prepares at most limit
// keys: past either, keys are verified by crypto/ed25519, with the same
// verdicts. A key listed twice gets one table. A run prepares a key its
// repository lists 32 ROAs under before its first check, and none for 31.
func TestPreparedTablesCapped(t *testing.T) {
	var keys []ed25519.PrivateKey
	var pubs []ed25519.PublicKey
	for i := 0; i < maxTables+8; i++ {
		keys = append(keys, ed25519.NewKeyFromSeed(append(make([]byte, 30), byte(i>>8), byte(i))))
		pubs = append(pubs, keys[i].Public().(ed25519.PublicKey))
	}
	for _, limit := range []int{maxTables + 6, 10} {
		memo := NewVerdictMemo(limit)
		want := min(limit, maxTables)
		if built := memo.prepareKeys(append(pubs, pubs...)); built != want {
			t.Fatalf("limit %d: built %d tables, want %d", limit, built, want)
		}
		for round := 0; round < 4; round++ {
			for i, priv := range keys {
				message := []byte(fmt.Sprintf("object %d", round))
				sig := ed25519.Sign(priv, message)
				if round%2 == 1 {
					sig[0] ^= 1
				}
				if got, want := memo.verify(pubs[i], message, sig, nil), round%2 == 0; got != want {
					t.Fatalf("limit %d, key %d, object %d: verdict %t, want %t", limit, i, round, got, want)
				}
			}
		}
		if slots, held := tablesBuilt(memo); slots != want || held != want || len(memo.keys) != want {
			t.Fatalf("limit %d: %d table slots, %d held, %d keys, want %d", limit, slots, held, len(memo.keys), want)
		}
	}

	// No ROA is visible yet, so none is checked: a table comes before
	// the first check, from the listing alone.
	for _, n := range []int{prepareAt - 1, prepareAt} {
		repo, anchor := oneIssuer(t, n)
		memo := NewVerdictMemo(1 << 10)
		rp, err := NewRelyingPartyMemo(memo, anchor)
		if err != nil {
			t.Fatal(err)
		}
		rp.Now, rp.ROAVisibilityLag = tEval, tEval.Sub(t0)+time.Hour
		if vrps, stats, err := rp.Run(context.Background(), repo, 0); err != nil || len(vrps) != 0 || stats.ROAsRejected != n {
			t.Fatalf("%d ROAs, none visible: %d VRPs %+v, err %v", n, len(vrps), stats, err)
		}
		if _, held := tablesBuilt(memo); held != n/prepareAt {
			t.Fatalf("%d listed ROAs, none checked: %d tables", n, held)
		}
	}
}

// BenchmarkVerify is one signature check by crypto/ed25519, under a
// prepared key alone and in a batch of 64 (on the scalar path too, where
// the lane kernel is selected), and the cost of preparing one.
func BenchmarkVerify(b *testing.B) {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	message := make([]byte, 120)
	sig := ed25519.Sign(priv, message)
	prepared, err := edwards25519.NewPublicKey(pub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stdlib", func(b *testing.B) {
		for range b.N {
			if !ed25519.Verify(pub, message, sig) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		for range b.N {
			if !verifyOne(prepared, message, sig) {
				b.Fatal("rejected")
			}
		}
	})
	batch64 := func(b *testing.B) {
		checks := make([]edwards25519.Check, 64)
		for i := range checks {
			checks[i] = edwards25519.Check{Key: prepared, Message: message, Sig: sig}
		}
		ok := make([]bool, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i += 64 {
			edwards25519.VerifyBatch(checks, ok)
			if !ok[63] {
				b.Fatal("rejected")
			}
		}
	}
	b.Run("batch64", batch64)
	if laneKernel {
		b.Run("batch64-scalar", func(b *testing.B) {
			defer func() { useLanes = true }()
			useLanes = false
			batch64(b)
		})
	}
	b.Run("prepare", func(b *testing.B) {
		for range b.N {
			if _, err := edwards25519.NewPublicKey(pub); err != nil {
				b.Fatal(err)
			}
		}
	})
}
