package rtr

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/rpki"
)

// A cache that accepts and never answers costs Fetch and Update no more
// than their context allows: a deadline ends the exchange at the
// deadline, a cancel ends it at the cancel.
func TestFetchBoundedBySilentCache(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	addr := ln.Addr().String()

	const bound = time.Second
	withCancel := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(bound, cancel)
		return ctx, cancel
	}
	withTimeout := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), bound)
	}
	for _, tc := range []struct {
		name  string
		ctx   func() (context.Context, context.CancelFunc)
		fetch func(context.Context) (*FetchResult, error)
		want  error
	}{
		{"Fetch/deadline", withTimeout, func(ctx context.Context) (*FetchResult, error) { return Fetch(ctx, addr) }, context.DeadlineExceeded},
		{"Update/deadline", withTimeout, func(ctx context.Context) (*FetchResult, error) {
			return Update(ctx, addr, &FetchResult{Serial: 1})
		}, context.DeadlineExceeded},
		{"Fetch/cancel", withCancel, func(ctx context.Context) (*FetchResult, error) { return Fetch(ctx, addr) }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			res, err := tc.fetch(ctx)
			if elapsed := time.Since(start); elapsed > bound+500*time.Millisecond {
				t.Errorf("returned after %v, bound %v", elapsed, bound)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v, %v; want error %v", res, err, tc.want)
			}
		})
	}
}

// Under injected transport faults every Fetch ends within its deadline
// with either the exact snapshot the cache held at the serial it reports
// or an error — never a partial set. Byte corruption is left out: RTR
// trusts its transport for integrity, so a flipped bit inside a prefix is
// a different valid VRP; decoder robustness is TestReadNeverPanics. Once
// the faults stop, a fetch returns the current snapshot.
func TestRTRChaosFetchExactOrError(t *testing.T) {
	snapshots := map[uint32][]rpki.VRP{1: sampleVRPs()}
	s := NewServer(snapshots[1])
	s.SetIdleTimeout(500 * time.Millisecond) // unstick desynced readers fast
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := netx.NewFaultInjector(netx.FaultConfig{
		Seed:            3,
		Latency:         time.Millisecond,
		PartialWrites:   0.5,
		Reset:           0.15,
		Stall:           0.1,
		StallFor:        time.Second, // past the fetch deadline
		AcceptFailEvery: 3,
	})
	if err := s.Serve(inj.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := ln.Addr().String()

	const deadline = 200 * time.Millisecond
	var exact, failed int
	for i := 0; i < 40; i++ {
		if i%10 == 9 { // the relying party refreshes the cache
			next := sampleVRPs()[:1+(i/10)%3]
			s.SetVRPs(next)
			snapshots[s.Serial()] = next
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		res, err := Fetch(ctx, addr)
		elapsed := time.Since(start)
		cancel()
		if elapsed > deadline+250*time.Millisecond {
			t.Errorf("fetch %d returned after %v, deadline %v", i, elapsed, deadline)
		}
		if err != nil {
			failed++
			continue
		}
		if want, ok := snapshots[res.Serial]; !ok || !reflect.DeepEqual(res.VRPs, want) {
			t.Errorf("fetch %d: serial %d VRPs %v, want %v", i, res.Serial, res.VRPs, want)
		}
		exact++
	}
	counts := inj.Counts()
	for _, class := range []string{netx.FaultLatency, netx.FaultPartial, netx.FaultReset, netx.FaultStall, netx.FaultAcceptFail} {
		if counts[class] == 0 {
			t.Errorf("fault class %q never fired (%v)", class, counts)
		}
	}
	if exact == 0 || failed == 0 {
		t.Errorf("%d exact fetches and %d errors; the schedule should produce both", exact, failed)
	}

	inj.Disable()
	res, err := Fetch(testCtx(t), addr)
	if err != nil {
		t.Fatalf("post-chaos fetch: %v", err)
	}
	if res.Serial != s.Serial() || !reflect.DeepEqual(res.VRPs, snapshots[s.Serial()]) {
		t.Errorf("post-chaos serial %d VRPs %v, want serial %d VRPs %v", res.Serial, res.VRPs, s.Serial(), snapshots[s.Serial()])
	}
}
