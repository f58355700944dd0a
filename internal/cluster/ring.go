// Package cluster turns one prophetd into a fleet. A Client owns the
// replica topology: a consistent-hash ring routes each prediction cell
// to the replica whose LRU and singleflight are hot for it, and a
// resilience stack — per-peer circuit breakers fed by a background
// health prober, retries with exponential backoff and jitter, request
// hedging to the next ring owner when the primary exceeds its latency
// budget, and graceful degradation to local computation — keeps cells
// answering while replicas crash, drain, or limp. Repeats of answered
// cells never reach the Client: the serving layer's LRU answers them
// first, even with every peer gone.
//
// The cell identity handed to Route is the same key the serving layer
// caches on (workload, compressed-tree hash, canonical request), so a
// cell lands on the same replica for every coordinator in the fleet and
// repeats hit that replica's warm cache. Because the sweep merge
// contract (PR 1) orders outcomes by cell index, a coordinator can
// scatter a grid across the ring, lose replicas mid-sweep, re-route the
// orphaned cells, and still merge byte-identical output.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// ring is an immutable consistent-hash ring: each peer contributes
// vnodes points, and a key is owned by the first peers clockwise from
// its hash. Immutability keeps lookups lock-free; membership in this
// design is static per process (the breakers, not the ring, track which
// peers are currently usable).
type ring struct {
	points []ringPoint // sorted by hash
	peers  []string
}

type ringPoint struct {
	hash uint64
	peer string
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// newRing builds a ring over peers (deduplicated, order-independent)
// with vnodes virtual points per peer.
func newRing(peers []string, vnodes int) *ring {
	if vnodes < 1 {
		vnodes = 1
	}
	seen := map[string]bool{}
	r := &ring{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on peer name so the walk order is deterministic even
		// in the (vanishingly unlikely) event of a hash collision.
		return r.points[i].peer < r.points[j].peer
	})
	sort.Strings(r.peers)
	return r
}

// owners returns up to n distinct peers in ring order starting at the
// key's position — the primary first, then the failover/hedge targets.
func (r *ring) owners(key string, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// NormalizeAddr canonicalizes a peer address for ring identity: scheme
// defaulted to http, trailing slashes stripped. Two spellings of the
// same replica must normalize identically or the fleet's rings disagree.
func NormalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}
