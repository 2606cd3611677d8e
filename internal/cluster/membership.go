// membership.go is the health-checked ring membership: a prober loop
// GETs each replica's /healthz on an interval, and state transitions
// apply hysteresis — a replica must fail two consecutive observations
// to leave the ring and pass two to rejoin, so one dropped probe (or
// one slow answer under load) cannot flap the ring and reshuffle keys. The gateway's
// forwarding path feeds the same counters passively: a connect failure
// while proxying counts like a failed probe, so a dead replica leaves
// the ring faster than the probe interval alone would allow.

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"manrsmeter/internal/obsv"
)

// Membership defaults.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 2 * time.Second
	// hysteresis is how many consecutive failures demote a replica and
	// how many consecutive successes promote it again.
	hysteresis = 2
)

// MembershipOptions tunes a Membership.
type MembershipOptions struct {
	// ProbeInterval is the health-check period; ≤ 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; ≤ 0 means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// Probe overrides the health check (tests). The default GETs
	// replica + "/healthz" and demands a 2xx.
	Probe func(ctx context.Context, replica string) error
	// Registry receives the membership metrics; nil means obsv.Default().
	Registry *obsv.Registry
	// Logf, when set, receives state transitions.
	Logf func(format string, args ...any)
}

// replicaHealth is one replica's hysteresis state.
type replicaHealth struct {
	up bool
	// streak counts consecutive observations agreeing with a pending
	// transition: failures while up, successes while down.
	streak int
}

// Membership tracks which replicas are live and keeps a Ring's member
// set in sync. All methods are safe for concurrent use.
type Membership struct {
	ring     *Ring
	replicas []string // the configured fleet, fixed at construction
	opts     MembershipOptions

	mu     sync.Mutex
	states map[string]*replicaHealth

	transitions *obsv.Counter
	probeFails  *obsv.Counter
}

// NewMembership builds a membership over the fixed replica fleet,
// driving ring. Every replica starts live (optimistic: the gateway can
// serve the moment it boots; a dead replica is demoted after hysteresis
// observations).
func NewMembership(ring *Ring, replicas []string, opts MembershipOptions) *Membership {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	reg := opts.Registry
	if reg == nil {
		reg = obsv.Default()
	}
	if opts.Probe == nil {
		client := &http.Client{Timeout: opts.ProbeTimeout}
		opts.Probe = func(ctx context.Context, replica string) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode < 200 || resp.StatusCode > 299 {
				return fmt.Errorf("healthz status %d", resp.StatusCode)
			}
			return nil
		}
	}
	m := &Membership{
		ring:     ring,
		replicas: append([]string(nil), replicas...),
		opts:     opts,
		states:   make(map[string]*replicaHealth, len(replicas)),
		transitions: reg.Counter("cluster_ring_transitions_total",
			"replica up/down transitions applied to the ring"),
		probeFails: reg.Counter("cluster_probe_failures_total",
			"failed health observations (probes and passive forwarding failures)"),
	}
	for _, r := range replicas {
		m.states[r] = &replicaHealth{up: true}
	}
	ring.SetMembers(replicas)
	return m
}

// Start runs the probe loop until ctx is done.
func (m *Membership) Start(ctx context.Context) {
	t := time.NewTicker(m.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.probeAll(ctx)
		}
	}
}

// probeAll observes every replica once, in parallel (a hung replica
// must not delay the others' probes).
func (m *Membership) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range m.replicas {
		wg.Add(1)
		go func(r string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.opts.ProbeTimeout)
			defer cancel()
			m.Observe(r, m.opts.Probe(pctx, r) == nil)
		}(r)
	}
	wg.Wait()
}

// Observe feeds one health observation into the hysteresis machine —
// from the probe loop or passively from the gateway's forwarding path.
// Unknown replicas are ignored.
func (m *Membership) Observe(replica string, ok bool) {
	m.mu.Lock()
	st, known := m.states[replica]
	if !known {
		m.mu.Unlock()
		return
	}
	if !ok {
		m.probeFails.Inc()
	}
	changed := false
	if st.up == ok {
		st.streak = 0 // the observation agrees: no transition is pending
	} else if st.streak++; st.streak >= hysteresis {
		st.up, st.streak, changed = ok, 0, true
	}
	var liveSet []string
	if changed {
		liveSet = m.liveLocked()
	}
	m.mu.Unlock()

	if changed {
		m.ring.SetMembers(liveSet)
		m.transitions.Inc()
		if m.opts.Logf != nil {
			state := "down"
			if ok {
				state = "up"
			}
			m.opts.Logf("cluster: replica %s marked %s (%d live in ring)", replica, state, len(liveSet))
		}
	}
}

// liveLocked (m.mu held) returns the replicas currently up.
func (m *Membership) liveLocked() []string {
	out := make([]string, 0, len(m.replicas))
	for _, r := range m.replicas {
		if m.states[r].up {
			out = append(out, r)
		}
	}
	return out
}

// Live returns the replicas currently in the ring.
func (m *Membership) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveLocked()
}

// Replicas returns the configured fleet (live or not).
func (m *Membership) Replicas() []string {
	return append([]string(nil), m.replicas...)
}

// Up reports whether replica is currently in the ring.
func (m *Membership) Up(replica string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[replica]
	return ok && st.up
}
