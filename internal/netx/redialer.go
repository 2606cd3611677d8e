// redialer.go provides the client-side counterpart of the Server
// harness: an exponential-backoff reconnecting dialer for feeds that
// must survive a flapping or restarting remote (the RTR client
// refreshing from a cache).

package netx

import (
	"context"
	"fmt"
	"net"
	"time"

	"manrsmeter/internal/obsv"
)

// Redialer metrics: every retry (dial failure or broken session) and
// the backoff pauses it scheduled, plus terminal give-ups. Feeds that
// storm the retry path show up here before they show up as data gaps.
var (
	mRedialAttempts = obsv.NewCounter("netx_redial_attempts_total",
		"connection attempts made by Redialer (first attempts included)")
	mRedialRetries = obsv.NewCounter("netx_redial_retries_total",
		"failed Redialer attempts that scheduled a backoff pause")
	mRedialGiveUps = obsv.NewCounter("netx_redial_giveups_total",
		"Redialer runs that exhausted MaxAttempts")
	mRedialBackoff = obsv.NewHistogram("netx_redial_backoff_seconds",
		"backoff pauses scheduled between Redialer attempts", nil)
)

// Redialer dials a remote with exponential backoff between attempts.
// The zero value is not usable; set Addr or Dial.
type Redialer struct {
	// Addr is dialed over TCP when Dial is nil.
	Addr string
	// Dial overrides how connections are made (tests inject fault
	// wrappers or pipes here).
	Dial func(ctx context.Context) (net.Conn, error)
	// MinBackoff is the delay after the first failure (default 50ms).
	MinBackoff time.Duration
	// MaxBackoff caps the doubling (default 15s).
	MaxBackoff time.Duration
	// MaxAttempts bounds consecutive failures (dial errors and session
	// errors combined) before giving up. Zero retries forever.
	MaxAttempts int
	// OnRetry, when set, observes each failure and the planned pause.
	OnRetry func(attempt int, err error, next time.Duration)
}

func (r *Redialer) limits() (min, max time.Duration) {
	min, max = r.MinBackoff, r.MaxBackoff
	if min <= 0 {
		min = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 15 * time.Second
	}
	if max < min {
		max = min
	}
	return min, max
}

func (r *Redialer) dialOnce(ctx context.Context) (net.Conn, error) {
	if r.Dial != nil {
		return r.Dial(ctx)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", r.Addr)
}

// Run maintains a session: it connects (with backoff), passes the
// connection to fn, and when fn fails, closes the connection and
// reconnects. fn returning nil ends the loop successfully. A session
// that survived at least MaxBackoff resets the failure budget, so a
// long-lived feed that eventually drops is treated as fresh rather than
// consuming the attempt budget of a flapping one. If ctx has a
// deadline it is applied to each connection before fn runs.
func (r *Redialer) Run(ctx context.Context, fn func(ctx context.Context, conn net.Conn) error) error {
	min, max := r.limits()
	backoff := min
	attempt := 0
	for {
		attempt++
		mRedialAttempts.Inc()
		conn, err := r.dialOnce(ctx)
		if err == nil {
			if dl, ok := ctx.Deadline(); ok {
				_ = conn.SetDeadline(dl)
			}
			start := time.Now()
			err = fn(ctx, conn)
			conn.Close()
			if err == nil {
				return nil
			}
			if time.Since(start) >= max {
				attempt, backoff = 0, min
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if r.MaxAttempts > 0 && attempt >= r.MaxAttempts {
			mRedialGiveUps.Inc()
			return fmt.Errorf("netx: giving up after %d attempts: %w", attempt, err)
		}
		mRedialRetries.Inc()
		mRedialBackoff.Observe(backoff.Seconds())
		if r.OnRetry != nil {
			r.OnRetry(attempt, err, backoff)
		}
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		if backoff < max {
			backoff *= 2
			if backoff > max {
				backoff = max
			}
		}
	}
}

// sleepCtx pauses for d, returning false early if ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
