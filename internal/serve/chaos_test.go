package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
)

// TestServeUnderNetworkFaults drives the listener through the netx
// fault injector: connections suffer latency, fragmented writes, resets
// and stalls while concurrent clients hammer the API. The server must
// stay up (requests either succeed or fail at the transport), and once
// faults stop a clean request and a graceful drain must both succeed.
func TestServeUnderNetworkFaults(t *testing.T) {
	reg := obsv.NewRegistry()
	store := NewStore(testWorld(t), StoreOptions{Registry: reg})
	srv := NewServer(store, Options{Registry: reg})

	// Warm the snapshot so the chaos phase measures the serving path,
	// not a single coalesced build.
	if _, err := store.Get(context.Background(), store.DefaultDate()); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := netx.NewFaultInjector(netx.FaultConfig{
		Seed:          1,
		Latency:       time.Millisecond,
		PartialWrites: 0.3,
		Reset:         0.15,
		Stall:         0.1,
		StallFor:      20 * time.Millisecond,
	})
	if err := srv.Serve(inj.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 2 * time.Second}
	var (
		mu        sync.Mutex
		succeeded int
	)
	var wg sync.WaitGroup
	paths := []string{"/v1/stats", "/v1/report", "/healthz"}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				resp, err := client.Get(base + paths[(i+j)%len(paths)])
				if err != nil {
					continue // transport fault: acceptable during chaos
				}
				_, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK {
					mu.Lock()
					succeeded++
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()

	// Faults end; the server must converge to clean service.
	inj.Disable()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("clean request after faults disabled: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("clean request: status %d, %d bytes, err %v", resp.StatusCode, len(body), err)
	}
	if succeeded == 0 {
		t.Error("no request survived the fault phase; injector too aggressive to be a useful test")
	}
	t.Logf("chaos phase: %d/64 requests succeeded; injector counts: %v", succeeded, inj.Counts())

	// The transport keeps connections it dialed for a request that then
	// went out on another one. They never carried a byte, and net/http's
	// Shutdown gives such a connection five seconds to send its first
	// request before it counts as idle: the whole drain budget. A
	// departing client closes them; the drain must then be prompt.
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain after chaos: %v", err)
	}
}
