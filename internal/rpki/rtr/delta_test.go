package rtr

import (
	"reflect"
	"testing"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

func TestUpdateDeltaAnnounceAndWithdraw(t *testing.T) {
	ctx := testCtx(t)
	initial := sampleVRPs()
	srv := NewServer(initial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	prior, err := Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if prior.Serial != 1 {
		t.Fatalf("initial serial = %d", prior.Serial)
	}

	// New snapshot: drop one VRP, add another.
	next := []rpki.VRP{
		initial[0],
		initial[2],
		{Prefix: netx.MustParsePrefix("203.0.113.0/24"), ASN: 64999, MaxLength: 24},
	}
	srv.SetVRPs(next)

	got, err := Update(ctx, addr.String(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != 2 {
		t.Errorf("updated serial = %d", got.Serial)
	}
	want := append([]rpki.VRP(nil), next...)
	sortVRPs(want)
	if !reflect.DeepEqual(got.VRPs, want) {
		t.Errorf("delta result = %+v, want %+v", got.VRPs, want)
	}
}

func TestUpdateCurrentSerialEmptyDelta(t *testing.T) {
	ctx := testCtx(t)
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prior, err := Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Update(ctx, addr.String(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != prior.Serial || len(got.VRPs) != len(prior.VRPs) {
		t.Errorf("no-op update changed state: %+v", got)
	}
}

func TestUpdateStaleSerialFallsBackToReset(t *testing.T) {
	ctx := testCtx(t)
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Client claims a serial the server never had.
	stale := &FetchResult{Serial: 777, Session: 1}
	got, err := Update(ctx, addr.String(), stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VRPs) != 3 || got.Serial != 1 {
		t.Errorf("fallback fetch = %d VRPs serial %d", len(got.VRPs), got.Serial)
	}
}

func TestUpdateNilPriorIsFullFetch(t *testing.T) {
	ctx := testCtx(t)
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := Update(ctx, addr.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VRPs) != 3 {
		t.Errorf("nil-prior update = %d VRPs", len(got.VRPs))
	}
}

func TestHistoryEviction(t *testing.T) {
	ctx := testCtx(t)
	srv := NewServer(sampleVRPs())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prior, err := Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	// Push the first serial out of the history window.
	for i := 0; i < maxHistory+2; i++ {
		srv.SetVRPs(sampleVRPs()[:1+i%2])
	}
	// The stale client still converges via the reset fallback.
	got, err := Update(ctx, addr.String(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != srv.Serial() {
		t.Errorf("converged serial = %d, want %d", got.Serial, srv.Serial())
	}
	// A fresh client updating across one bump gets a true delta.
	fresh, err := Fetch(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetVRPs(sampleVRPs())
	got, err = Update(ctx, addr.String(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]rpki.VRP(nil), sampleVRPs()...)
	sortVRPs(want)
	if !reflect.DeepEqual(got.VRPs, want) {
		t.Errorf("delta across one bump = %+v", got.VRPs)
	}
}
