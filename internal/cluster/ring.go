// Package cluster is the distributed serve tier: a stateless HTTP
// gateway that routes /v1 conformance queries across N manrsd replicas
// with a deterministic rendezvous-hash ring, health-checked ring
// membership with hysteresis, one-shot retry of idempotent GETs on a
// distinct replica, and load shedding when the surviving set
// saturates. See DESIGN.md, "Gateway".
package cluster

import (
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a rendezvous-hash (highest-random-weight) ring over replica
// names. Ownership is a pure function of (seed, member, key): the same
// seed and member set produce the same routing in every process and
// across restarts, and membership changes disturb only the keys the
// joining or leaving member wins — the bounded-disruption property the
// ring tests assert.
//
// Rendezvous hashing is chosen over ketama-style virtual nodes because
// it needs no tuning (no vnode count), has no placement anomalies for
// small member sets (3–10 replicas, our regime), and makes the
// disruption bound exact: a leaving member's keys scatter over the
// survivors, everyone else's keys never move.
type Ring struct {
	seed uint64

	mu      sync.RWMutex
	members []string // sorted, deduplicated
}

// NewRing returns a ring over members with the given seed. The seed is
// part of every placement decision: gateway and tests fix it, so the
// mapping is reproducible fleet-wide.
func NewRing(seed uint64, members ...string) *Ring {
	r := &Ring{seed: seed}
	r.SetMembers(members)
	return r
}

// SetMembers replaces the member set (the membership prober drives
// this on health transitions).
func (r *Ring) SetMembers(members []string) {
	clean := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		clean = append(clean, m)
	}
	sort.Strings(clean)
	r.mu.Lock()
	r.members = clean
	r.mu.Unlock()
}

// score is the rendezvous weight of key on member: fnv64a over the
// seed, the member, and the key, with a NUL fence between the strings
// so ("ab","c") and ("a","bc") cannot collide, finished with a
// splitmix64 avalanche — raw fnv leaves the high bits correlated for
// near-identical inputs (replica names differ in one digit), which
// skews ownership shares well past the binomial bound the uniformity
// test enforces.
func (r *Ring) score(member, key string) uint64 {
	h := fnv.New64a()
	var seedBytes [8]byte
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(r.seed >> (8 * i))
	}
	h.Write(seedBytes[:])
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write([]byte(key))
	s := h.Sum64()
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	return s
}

// Owner returns the member owning key, or "" when the ring is empty.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members ranked by descending
// rendezvous score for key — the preference order a gateway walks when
// the primary fails (ties break on member name, so the order is total
// and deterministic).
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	members := r.members
	r.mu.RUnlock()
	if len(members) == 0 || n <= 0 {
		return nil
	}
	type ranked struct {
		member string
		score  uint64
	}
	rs := make([]ranked, len(members))
	for i, m := range members {
		rs[i] = ranked{member: m, score: r.score(m, key)}
	}
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].score != rs[b].score {
			return rs[a].score > rs[b].score
		}
		return rs[a].member < rs[b].member
	})
	if n > len(rs) {
		n = len(rs)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = rs[i].member
	}
	return out
}
