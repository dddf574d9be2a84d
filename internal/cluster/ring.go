// Package cluster is the sharded-serving tier: a consistent-hash router
// (cmd/spmmrouter) spreads content-addressed matrix IDs across N spmmserve
// replicas, replicates hot matrices to secondaries, health-checks the fleet
// and rebalances without drain on membership changes. The ring here is the
// placement function everything else hangs off: deterministic, cheap to
// copy, and — critically for the rebalancer — minimally disruptive, so a
// join or leave moves only the IDs whose arc changed hands.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member. 128 keeps the
// max/mean ownership skew under ~1.35 across realistic fleet sizes (the
// ring property test pins exactly that) while the full point table for a
// 16-replica fleet stays around 2k entries — binary-searchable in tens of
// nanoseconds.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over named members. Mutation
// returns a new ring (With/Without), so a router can swap rings through an
// atomic pointer while lookups proceed lock-free on the old one. Members
// are stable replica NAMES, not addresses: placement must survive a replica
// restarting on a new port.
type Ring struct {
	vnodes  int
	members []string
	points  []point // sorted by hash; derived from vnodes × members
}

// point is one virtual node: a position on the 64-bit hash circle owned by
// members[owner].
type point struct {
	hash  uint64
	owner int
}

// hash64 is the ring's position function: the first 8 bytes of SHA-256.
// Cryptographic quality matters here — member names and matrix IDs are
// short, structured strings, and a weak mixer would cluster their points.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring with the given virtual-node count (<= 0 means
// DefaultVNodes) over the named members. Duplicate names collapse.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := map[string]bool{}
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.build()
	return r
}

// build derives the sorted point table from (vnodes, members). Each virtual
// node hashes "name#i" — a pure function of the member name, so the same
// membership always yields the identical table regardless of join order or
// serialization round-trips.
func (r *Ring) build() {
	r.points = make([]point, 0, r.vnodes*len(r.members))
	for mi, name := range r.members {
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(name + "#" + strconv.Itoa(v)), owner: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// A 64-bit collision between two members' points is astronomically
		// unlikely; break it by name so placement stays deterministic anyway.
		return r.members[a.owner] < r.members[b.owner]
	})
}

// Members returns the member names in sorted order (a copy).
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Len is the member count.
func (r *Ring) Len() int { return len(r.members) }

// Has reports membership.
func (r *Ring) Has(name string) bool {
	i := sort.SearchStrings(r.members, name)
	return i < len(r.members) && r.members[i] == name
}

// With returns a new ring with the member added (or the same membership if
// already present).
func (r *Ring) With(name string) *Ring {
	return NewRing(r.vnodes, append(r.Members(), name)...)
}

// Without returns a new ring with the member removed.
func (r *Ring) Without(name string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != name {
			kept = append(kept, m)
		}
	}
	return NewRing(r.vnodes, kept...)
}

// Owner returns the member owning id — the first virtual node at or after
// the id's position, wrapping at the top of the circle. Empty ring → "".
func (r *Ring) Owner(id string) string {
	owners := r.Owners(id, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n DISTINCT members in preference order for id: the
// owner first, then the successors a replication policy spills onto. The
// walk is clockwise from the id's position, skipping virtual nodes of
// members already collected, so every member appears at most once.
func (r *Ring) Owners(id string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	return r.appendOwners(make([]string, 0, min(n, len(r.members))), id, n)
}

// appendOwners appends Owners(id, n) to dst: the router's multiply path
// plans into a buffer on its stack.
func (r *Ring) appendOwners(dst []string, id string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	n = min(n, len(r.members))
	h := hash64(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	taken := make(map[int]bool, n)
	for i, got := 0, 0; i < len(r.points) && got < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.owner] {
			taken[p.owner] = true
			dst = append(dst, r.members[p.owner])
			got++
		}
	}
	return dst
}

// ringState is the serialized form: the derived point table is rebuilt, not
// shipped, so two routers deserializing the same state cannot disagree.
type ringState struct {
	VNodes  int      `json:"vnodes"`
	Members []string `json:"members"`
}

// MarshalJSON serializes the ring's defining state (vnodes + members).
func (r *Ring) MarshalJSON() ([]byte, error) {
	return json.Marshal(ringState{VNodes: r.vnodes, Members: r.members})
}

// UnmarshalJSON rebuilds a ring from its serialized state.
func (r *Ring) UnmarshalJSON(b []byte) error {
	var st ringState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("cluster: ring state: %w", err)
	}
	nr := NewRing(st.VNodes, st.Members...)
	*r = *nr
	return nil
}
