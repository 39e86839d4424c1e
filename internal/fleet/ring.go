// Package fleet is the routing tier over N powermoved backends: a
// consistent-hash ring maps each request's canonical compile key
// (service.RoutingKey — the same pipeline.Key the LRU cache and the
// disk store address by) onto one backend, so identical compiles always
// land on the daemon whose caches already hold them. Around the ring sit
// an active health checker with bounded backoff (health.go) and a
// proxying router with next-replica failover and fleet-wide metrics
// aggregation (router.go).
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member is
// hashed at vnodes points on a 64-bit circle; a key is owned by the
// first point clockwise of its hash. The properties the fleet needs:
//
//   - stable: the same key always maps to the same member while
//     membership holds, across processes and restarts (the point hash
//     is sha256-derived, not seeded);
//   - minimal disruption: adding or removing one member reassigns only
//     the keys that member's points covered (~1/N of the space) —
//     every other key keeps its backend, and so its warm caches;
//   - spread: vnodes per member smooths ownership to within a few
//     percent of uniform (see TestRingDistribution).
//
// A Ring is immutable after construction; membership changes build a
// new Ring, which is how the router swaps them atomically.
type Ring struct {
	points  []ringPoint // sorted by hash, ascending
	members []string    // distinct, sorted; for introspection
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVNodes is the virtual-node count used when NewRing is given
// n <= 0. 128 points per member keeps the max/min ownership ratio
// under ~1.3 for small fleets.
const DefaultVNodes = 128

// NewRing builds a ring over the given members (duplicates ignored)
// with vnodes virtual points each.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break by member name so equal hashes (vanishingly rare
		// but possible) still order deterministically across builds.
		return a.member < b.member
	})
	return r
}

// Members returns the distinct members on the ring, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Pick returns the member owning key, or "" on an empty ring.
func (r *Ring) Pick(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(key)].member
}

// Sequence returns all distinct members in clockwise ring order
// starting from key's owner. It is the failover order: the router
// tries Sequence(key)[0], then [1], and so on — so a key's secondary
// is as stable as its primary, and a retried request lands on the
// same replica every time.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := r.successor(key)
	seq := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points) && len(seq) < len(r.members); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			seq = append(seq, m)
		}
	}
	return seq
}

// successor returns the index of the first point clockwise of key's
// hash, wrapping past the top of the circle.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 maps s onto the ring's 64-bit circle. sha256 rather than
// fnv: member names are short and structured ("b1#0", "b1#1", ...),
// and a weak hash clusters such points badly enough to skew ownership.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
