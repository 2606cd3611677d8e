package netx

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"manrsmeter/internal/obsv"
)

// The Connect tests cover Run's dial phase: failures before any session.

func TestRedialerConnectBacksOffThenSucceeds(t *testing.T) {
	retriesBefore := obsv.Default().Value("netx_redial_retries_total")
	var dials atomic.Int64
	var ln net.Listener
	rd := &Redialer{
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			if dials.Add(1) < 3 {
				return nil, errors.New("cache down")
			}
			return net.Dial("tcp", ln.Addr().String())
		},
	}
	var err error
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()

	if err := rd.Run(context.Background(), func(context.Context, net.Conn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if dials.Load() != 3 {
		t.Errorf("dials = %d, want 3", dials.Load())
	}
	if d := obsv.Default().Value("netx_redial_retries_total") - retriesBefore; d < 2 {
		t.Errorf("netx_redial_retries_total moved by %d, want >= 2", d)
	}
}

func TestRedialerConnectMaxAttempts(t *testing.T) {
	rd := &Redialer{
		MinBackoff:  time.Millisecond,
		MaxAttempts: 3,
		Dial: func(ctx context.Context) (net.Conn, error) {
			return nil, errors.New("always down")
		},
	}
	start := time.Now()
	if err := rd.Run(context.Background(), func(context.Context, net.Conn) error { return nil }); err == nil {
		t.Fatal("Run should give up")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("gave up too slowly")
	}
}

func TestRedialerConnectCtxCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rd := &Redialer{
		MinBackoff: 5 * time.Millisecond,
		Dial: func(ctx context.Context) (net.Conn, error) {
			return nil, errors.New("down")
		},
	}
	if err := rd.Run(ctx, func(context.Context, net.Conn) error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
}

func TestRedialerRunReconnectsUntilSuccess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close() // server that immediately hangs up
		}
	}()

	var sessions atomic.Int64
	rd := &Redialer{Addr: ln.Addr().String(), MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	err = rd.Run(context.Background(), func(ctx context.Context, conn net.Conn) error {
		if sessions.Add(1) < 4 {
			// Simulate the transport dying.
			return errors.New("stream broken")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sessions.Load() != 4 {
		t.Errorf("sessions = %d, want 4", sessions.Load())
	}
}

func TestRedialerRunStopsOnCtxDone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	rd := &Redialer{Addr: ln.Addr().String(), MinBackoff: time.Millisecond}
	done := make(chan error, 1)
	go func() {
		done <- rd.Run(ctx, func(ctx context.Context, conn net.Conn) error {
			<-ctx.Done()
			return ctx.Err()
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}
