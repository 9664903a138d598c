package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func testPeers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key/%d", i)
	}
	return out
}

func TestRingDeterministicUnderPeerReordering(t *testing.T) {
	peers := testPeers(7)
	a, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]string(nil), peers...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Duplicates must not disturb the assignment either.
		withDup := append(append([]string(nil), shuffled...), shuffled[0])
		b, err := NewRing(withDup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.peers, b.peers) {
			t.Fatalf("trial %d: member sets differ: %v vs %v", trial, a.peers, b.peers)
		}
		for _, k := range testKeys(500) {
			if ao, bo := a.Owners(k, 3), b.Owners(k, 3); !reflect.DeepEqual(ao, bo) {
				t.Fatalf("trial %d: key %q owners differ: %v vs %v", trial, k, ao, bo)
			}
		}
	}
}

func TestRingKeyMovementOnMembershipChange(t *testing.T) {
	const nPeers, nKeys = 10, 4000
	peers := testPeers(nPeers)
	full, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := NewRing(peers[:nPeers-1])
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(nKeys)

	// Removing one of n peers: only that peer's keys move, and they move to
	// peers that already existed (never shuffling keys between survivors).
	moved := 0
	for _, k := range keys {
		fo, so := full.Owners(k, 1)[0], smaller.Owners(k, 1)[0]
		if fo == so {
			continue
		}
		moved++
		if fo != peers[nPeers-1] {
			t.Fatalf("key %q moved from surviving peer %s to %s", k, fo, so)
		}
	}
	// The removed peer held ~1/n of the keys; allow generous variance for
	// the hash spread (2x the expected share).
	if lo, hi := nKeys/nPeers/2, nKeys*2/nPeers; moved < lo || moved > hi {
		t.Fatalf("removing 1 of %d peers moved %d of %d keys, want within [%d, %d]",
			nPeers, moved, nKeys, lo, hi)
	}

	// Adding a peer is the same bound from the other side.
	added := 0
	for _, k := range keys {
		if full.Owners(k, 1)[0] != smaller.Owners(k, 1)[0] {
			added++
		}
	}
	if added != moved {
		t.Fatalf("add/remove asymmetry: %d vs %d", added, moved)
	}
}

func TestRingOwnersAreDistinctAndOrdered(t *testing.T) {
	r, err := NewRing(testPeers(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: got %d owners, want 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate replica %s in %v", k, o, owners)
			}
			seen[o] = true
		}
		// Prefixes agree: the replica list is a stable walk, so asking for
		// fewer replicas returns a prefix of asking for more.
		for n := 1; n < 3; n++ {
			if fewer := r.Owners(k, n); !reflect.DeepEqual(fewer, owners[:n]) {
				t.Fatalf("key %q: Owners(%d)=%v is not a prefix of Owners(3)=%v", k, n, fewer, owners)
			}
		}
	}
}

func TestRingFailoverIsNextReplicaInRingOrder(t *testing.T) {
	// The failover contract: when a key's owner dies, the peer the survivors
	// agree on next is exactly Owners(key, 2)[1] — equivalently, the key's
	// owner in a ring built without the dead peer.
	peers := testPeers(6)
	full, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(300) {
		owners := full.Owners(k, 2)
		survivors := make([]string, 0, len(peers)-1)
		for _, p := range peers {
			if p != owners[0] {
				survivors = append(survivors, p)
			}
		}
		reduced, err := NewRing(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if got := reduced.Owners(k, 1)[0]; got != owners[1] {
			t.Fatalf("key %q: after losing %s the ring owner is %s, but the replica list promised %s",
				k, owners[0], got, owners[1])
		}
	}
}

func TestRingOwnersClampAndSpread(t *testing.T) {
	peers := testPeers(3)
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owners("k", 99); len(got) != len(peers) {
		t.Fatalf("Owners clamp: got %d, want %d", len(got), len(peers))
	}
	if got := r.Owners("k", 0); len(got) != 1 {
		t.Fatalf("Owners floor: got %d, want 1", len(got))
	}
	// Every peer owns a nontrivial share of shard keys.
	counts := map[string]int{}
	for sh := 0; sh < 300; sh++ {
		counts[r.ShardOwners(sh, 1)[0]]++
	}
	for _, p := range peers {
		if counts[p] < 30 {
			t.Fatalf("peer %s owns only %d of 300 shard keys: %v", p, counts[p], counts)
		}
	}
}

func TestRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("empty peer name accepted")
	}
}
