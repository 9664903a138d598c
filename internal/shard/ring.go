package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// virtualNodes is how many ring positions each peer takes. 128 keeps the
// per-peer load spread within a few percent for small clusters while the
// ring stays a few KB.
const virtualNodes = 128

// Ring is a consistent-hash ring assigning string keys (shard indices,
// routing cells) to peers. Each peer owns virtualNodes pseudo-random
// positions on a 64-bit circle; a key belongs to the first peer position at
// or after its own hash, and its replicas are the next distinct peers
// clockwise. The properties the cluster frontend leans on:
//
//   - Determinism: assignment depends only on the peer-name set and the key.
//     Peers are sorted and deduplicated at construction, so every frontend
//     given the same peer list — in any order — routes identically.
//   - Stability: adding or removing one of n peers moves ~1/n of the keys
//     and never reshuffles keys between two surviving peers.
//   - Replica order IS failover order: Owners(key, n) lists the owner first
//     and then the replicas in ring order, so "try the next replica" is the
//     same walk every peer performs.
//
// A Ring is immutable after construction; rebuild it to change membership.
type Ring struct {
	peers []string
	// points and owners are parallel: points is the sorted circle, owners[i]
	// indexes peers for the peer owning points[i].
	points []uint64
	owners []int32
}

// NewRing builds a ring over the given peer names. Order and duplicates in
// peers do not matter; names must be non-empty.
func NewRing(peers []string) (*Ring, error) {
	uniq := append([]string(nil), peers...)
	sort.Strings(uniq)
	n := 0
	for i, p := range uniq {
		if p == "" {
			return nil, fmt.Errorf("shard: empty peer name at index %d", i)
		}
		if n == 0 || uniq[n-1] != p {
			uniq[n] = p
			n++
		}
	}
	uniq = uniq[:n]
	if len(uniq) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one peer")
	}
	r := &Ring{
		peers:  uniq,
		points: make([]uint64, 0, len(uniq)*virtualNodes),
		owners: make([]int32, 0, len(uniq)*virtualNodes),
	}
	type pt struct {
		h     uint64
		owner int32
	}
	pts := make([]pt, 0, len(uniq)*virtualNodes)
	for pi, p := range uniq {
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, pt{h: ringHash(p + "#" + strconv.Itoa(v)), owner: int32(pi)})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		// A 64-bit collision between two peers' virtual nodes is vanishingly
		// rare but must still break deterministically: lower peer index wins.
		return pts[i].owner < pts[j].owner
	})
	for _, p := range pts {
		r.points = append(r.points, p.h)
		r.owners = append(r.owners, p.owner)
	}
	return r, nil
}

// ringHash is FNV-64a followed by a 64-bit finalizer (the murmur3 mixer).
// Raw FNV barely avalanches when inputs differ only in a trailing digit —
// "peer#0".."peer#127" land on one tight arc, which collapses the spread —
// so the mixer diffuses every bit. Fixed and dependency-free, so every
// process and every release agrees on the circle.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NumPeers returns the member count.
func (r *Ring) NumPeers() int { return len(r.peers) }

// find returns the index of the first ring point at or clockwise after h.
func (r *Ring) find(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		return 0 // wrap past the top of the circle
	}
	return i
}

// Owners returns the n distinct peers responsible for key: the owner first,
// then the replicas in ring order — which is also the failover order every
// caller agrees on. n is clamped to the member count.
func (r *Ring) Owners(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]struct{}, n)
	start := r.find(ringHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		o := r.owners[(start+i)%len(r.points)]
		if _, ok := seen[o]; ok {
			continue
		}
		seen[o] = struct{}{}
		out = append(out, r.peers[o])
	}
	return out
}

// ShardOwners returns the owner-then-replicas peer list for shard index sh —
// the ring key every frontend and smoke script uses for shard placement.
func (r *Ring) ShardOwners(sh, n int) []string {
	return r.Owners(ShardKeyName(sh), n)
}

// ShardKeyName is the canonical ring key for a shard index.
func ShardKeyName(sh int) string { return "shard/" + strconv.Itoa(sh) }
