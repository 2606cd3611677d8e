package synth

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpki"
)

// memoTestWorld is a world small enough to validate a few hundred times
// per test: about forty ASes and, depending on the seed, 30 to 90 ROAs.
func memoTestWorld(t *testing.T, seed int64) *World {
	t.Helper()
	cfg := NewConfig(seed)
	cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 2, 0, 5, 30, 0
	cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 8, 2, 1, 0
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// scenarioForks returns forks of w carrying each mutation kind the
// scenario engine applies to the RPKI, in the order as0-roa,
// wrong-origin-roa, expired-ca, rp-fail, roa-lag.
func scenarioForks(t *testing.T, w *World) []*World {
	t.Helper()
	headline := w.Date(w.Config.EndYear)
	origs := w.OriginationsAt(headline)
	victim := origs[len(origs)/2]
	rir, err := RIRForPrefix(victim.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	hijack := []rpki.ROAPrefix{{Prefix: victim.Prefix, MaxLength: victim.Prefix.Bits()}}
	var forks []*World
	mutate := func(name string, apply func(f *World) error) {
		f := w.Fork(name)
		if err := apply(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		forks = append(forks, f)
	}
	mutate("as0-roa", func(f *World) error { return f.PublishROA(rir, 0, hijack, w.Date(2011), w.Date(2040)) })
	mutate("wrong-origin-roa", func(f *World) error {
		return f.PublishROA(rir, victim.Origin+1, hijack, w.Date(2011), w.Date(2040))
	})
	mutate("expired-ca", func(f *World) error {
		// Valid when issued, expired from 2020 on: the verdict for a
		// re-homed ROA differs between study dates.
		_, err := f.RehomeROAs(rir, 0.5, w.Date(2011), w.Date(2020).AddDate(0, 0, -1))
		return err
	})
	mutate("rp-fail", func(f *World) error { f.FailRelyingParty(rir); return nil })
	mutate("roa-lag", func(f *World) error { f.SetROAVisibilityLag(400 * 24 * time.Hour); return nil })
	return forks
}

// oracleRun is the memo-less relying party on one goroutine: every
// signature verified, in publication order.
func oracleRun(t *testing.T, w *World, at time.Time) ([]rpki.VRP, rpki.ValidationStats) {
	t.Helper()
	return relyingPartyRun(t, w, at, nil, 1)
}

func relyingPartyRun(t *testing.T, w *World, at time.Time, memo *rpki.VerdictMemo, workers int) ([]rpki.VRP, rpki.ValidationStats) {
	t.Helper()
	rp, err := w.relyingPartyAt(at, memo)
	if err != nil {
		t.Fatal(err)
	}
	vrps, stats, err := rp.Run(context.Background(), w.Repo, workers)
	if err != nil {
		t.Fatal(err)
	}
	return vrps, stats
}

// sigChecks returns the process-wide signature-check counters.
func sigChecks() (hit, miss int64) {
	return obsv.Default().Value("rpki_signature_checks_total", "memo", "hit"),
		obsv.Default().Value("rpki_signature_checks_total", "memo", "miss")
}

// The memo and the worker count are two more redundant routes to the same
// answer, so they get an oracle: over many seeded worlds, on every study
// date, for the base and for a fork carrying each RPKI mutation kind, a
// relying party at 1, 2 and 8 workers, memo-less or with a memo warmed by
// the other dates and the other forks, returns exactly what a serial
// memo-less one does, VRP for VRP and stat for stat. The memo-less run
// verifies with crypto/ed25519; before a run's first check, the memo
// prepares each key the repository lists 32 or more ROAs under, so
// worlds where one anchor signs that many also hold the prepared-key
// verifier to the standard library.
func TestVRPsAtMatchesMemolessOracle(t *testing.T) {
	prepared := 0 // worlds with a key the memo prepares
	for seed := int64(1); seed <= 20; seed++ {
		w := memoTestWorld(t, seed)
		signed := map[string]int{}
		for _, roa := range w.Repo.ROAs() {
			if signed[roa.SignerName]++; signed[roa.SignerName] == 36 {
				prepared++
				break
			}
		}
		if w.sigMemo.Len() != 0 {
			t.Fatalf("seed %d: Generate left %d verdicts in the memo; the first run must verify everything", seed, w.sigMemo.Len())
		}
		worlds := []*World{w} // the base first: forks are compared against it
		for _, f := range scenarioForks(t, w) {
			if f.sigMemo != w.sigMemo {
				t.Fatalf("seed %d: fork %s does not share the base's memo", seed, f.Scenario())
			}
			worlds = append(worlds, f)
		}

		var differ int // (fork, date) pairs whose VRPs differ from the base's
		for y := w.Config.StartYear; y <= w.Config.EndYear; y++ {
			at := w.Date(y)
			var baseVRPs []rpki.VRP
			for _, f := range worlds {
				name := f.Scenario()
				wantVRPs, wantStats := oracleRun(t, f, at)
				for _, workers := range []int{1, 2, 8} {
					for _, memo := range []*rpki.VerdictMemo{nil, f.sigMemo} {
						if memo == nil && workers == 1 {
							continue // the oracle itself
						}
						gotVRPs, gotStats := relyingPartyRun(t, f, at, memo, workers)
						if !reflect.DeepEqual(gotVRPs, wantVRPs) || gotStats != wantStats {
							t.Fatalf("seed %d fork %q %d, %d workers, memo %t: %d VRPs %+v, oracle %d VRPs %+v",
								seed, name, y, workers, memo != nil, len(gotVRPs), gotStats, len(wantVRPs), wantStats)
						}
					}
				}
				if viaWorld, err := f.VRPsAt(at); err != nil || !reflect.DeepEqual(viaWorld, wantVRPs) {
					t.Fatalf("seed %d fork %q %d: VRPsAt gives %d VRPs (err %v), oracle %d", seed, name, y, len(viaWorld), err, len(wantVRPs))
				}
				if f == w {
					baseVRPs = wantVRPs
				} else if !reflect.DeepEqual(wantVRPs, baseVRPs) {
					differ++
				}
			}
		}
		if differ < len(worlds)-1 {
			t.Errorf("seed %d: only %d (fork, date) pairs differ from the base; the mutations are not exercising the relying party", seed, differ)
		}
		if limit := sigMemoObjectFactor * (len(w.Anchors) + w.Repo.NumCerts() + w.Repo.NumROAs()); w.sigMemo.Len() > limit {
			t.Errorf("seed %d: memo holds %d verdicts, cap is %d", seed, w.sigMemo.Len(), limit)
		}
	}
	if prepared < 5 {
		t.Errorf("only %d of 20 worlds have a key that signs 36 ROAs: the oracle barely reaches prepared keys", prepared)
	}
}

// Each generated world owns its memo and draws its own keys, so one
// world's verdicts never answer for another: a second world from the
// same config pays exactly the first one's cold checks again — as many
// at 8 workers as at one: no verdict is computed twice — and only a
// repeat run on the same world is answered from the memo.
func TestMemoIsPerWorld(t *testing.T) {
	count := func(w *World, workers int) (hits, misses int64) {
		h0, m0 := sigChecks()
		if _, err := w.VRPsAtCtx(context.Background(), w.Date(w.Config.EndYear), workers); err != nil {
			t.Fatal(err)
		}
		h1, m1 := sigChecks()
		return h1 - h0, m1 - m0
	}
	a, b := memoTestWorld(t, 7), memoTestWorld(t, 7)
	if a.sigMemo == b.sigMemo {
		t.Fatal("two generated worlds share a memo")
	}
	aHits, aMisses := count(a, 1)
	bHits, bMisses := count(b, 8)
	if aMisses == 0 || aMisses != bMisses || aHits != bHits {
		t.Fatalf("cold runs: world a, 1 worker, %d hits %d misses; world b, 8 workers, %d hits %d misses; want equal, misses > 0", aHits, aMisses, bHits, bMisses)
	}
	// The anchors' self-signatures are the only checks a cold run repeats.
	if want := int64(len(a.Anchors)); aHits != want {
		t.Fatalf("cold run answered %d checks from the memo, want the %d anchor re-checks", aHits, want)
	}
	if hits, misses := count(a, 8); misses != 0 || hits != aHits+aMisses {
		t.Fatalf("warm run: %d hits %d misses, want %d and 0", hits, misses, aHits+aMisses)
	}
}

// Stability already runs VRPsAt for several dates at once; forks add
// writers to the same memo. Run under -race.
func TestVRPsAtConcurrentDatesAndForks(t *testing.T) {
	w := memoTestWorld(t, 3)
	forks := scenarioForks(t, w)
	worlds := []*World{w, forks[0], forks[2]} // base, as0-roa, expired-ca
	var dates []time.Time
	for y := w.Config.StartYear; y <= w.Config.EndYear; y++ {
		dates = append(dates, w.Date(y), w.Date(y).AddDate(0, 0, -7))
	}
	got := make([][]rpki.VRP, len(worlds)*len(dates))
	var wg sync.WaitGroup
	for wi, f := range worlds {
		for di, at := range dates {
			wg.Add(1)
			go func(slot int, f *World, at time.Time) {
				defer wg.Done()
				vrps, err := f.VRPsAt(at)
				if err != nil {
					t.Error(err)
				}
				got[slot] = vrps
			}(wi*len(dates)+di, f, at)
		}
	}
	wg.Wait()
	for wi, f := range worlds {
		for di, at := range dates {
			if want, _ := oracleRun(t, f, at); !reflect.DeepEqual(got[wi*len(dates)+di], want) {
				t.Errorf("world %q at %s: concurrent VRPsAt gave %d VRPs, oracle %d",
					f.Scenario(), at.Format("2006-01-02"), len(got[wi*len(dates)+di]), len(want))
			}
		}
	}
}

// Prepared keys change how a signature is verified, not which ones are:
// a cold op of the seed-1 build.weekly world (its four weekly relying
// party runs on a fresh world) verifies 2,455 signatures, as it did when
// every check went through crypto/ed25519, at one worker and at two.
func TestColdWeeklyRunMissCount(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := NewConfig(1)
		cfg.Tier1s, cfg.LargeISPs, cfg.MediumISPs, cfg.SmallASes, cfg.CDNs = 3, 0, 150, 1600, 0
		cfg.MANRSSmall, cfg.MANRSMedium, cfg.MANRSLarge, cfg.MANRSCDNs = 90, 40, 1, 0
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, m0 := sigChecks()
		for d := 3; d >= 0; d-- {
			if _, err := w.VRPsAtCtx(context.Background(), w.Date(cfg.EndYear).AddDate(0, 0, -7*d), workers); err != nil {
				t.Fatal(err)
			}
		}
		if _, m1 := sigChecks(); m1-m0 != 2455 {
			t.Errorf("%d workers: a cold weekly op verified %d signatures, want 2455", workers, m1-m0)
		}
	}
}
