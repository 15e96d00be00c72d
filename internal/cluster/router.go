package cluster

import (
	"hash/fnv"
	"sort"
	"sync"
)

// Router maps stream keys to owning nodes. Baseline assignment is
// rendezvous (highest-random-weight) hashing over the routable members
// — deterministic on every node, and removing a node only remaps the
// streams that node owned. On top of the hash sits the fleet placement
// controller's override table: explicit stream→node assignments with a
// monotonically increasing generation, adopted by every node via
// heartbeat piggyback, so consolidation decisions beat the hash.
//
// Every mutation bumps the routing epoch; forwarding and migration use
// the epoch only for observability (frames are self-describing), but a
// flipped epoch is the signal that in-flight resolutions may be stale.
type Router struct {
	self string

	mu        sync.RWMutex
	epoch     uint64
	gen       uint64
	overrides map[string]string
	members   []string // sorted routable node ids, always includes self
}

// NewRouter builds a router for the given node; the member set starts
// as just the node itself.
func NewRouter(self string) *Router {
	return &Router{
		self:      self,
		overrides: make(map[string]string),
		members:   []string{self},
	}
}

// Owner resolves a stream key to its owning node id: the override
// table first (ignoring overrides that point at unroutable nodes),
// then rendezvous hashing over the routable members.
func (r *Router) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n, ok := r.overrides[key]; ok && r.routable(n) {
		return n
	}
	best, bestW := r.self, uint64(0)
	for _, n := range r.members {
		if w := rendezvousWeight(n, key); w > bestW || best == "" {
			best, bestW = n, w
		}
	}
	return best
}

// routable reports membership of n in the current member list.
// Caller holds r.mu.
func (r *Router) routable(n string) bool {
	i := sort.SearchStrings(r.members, n)
	return i < len(r.members) && r.members[i] == n
}

// SetMembers replaces the routable member set (the membership layer
// calls this with self + every peer not marked dead). The epoch bumps
// only when the set actually changes.
func (r *Router) SetMembers(ids []string) {
	sorted := make([]string, 0, len(ids)+1)
	sorted = append(sorted, ids...)
	if !contains(sorted, r.self) {
		sorted = append(sorted, r.self)
	}
	sort.Strings(sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if equal(sorted, r.members) {
		return
	}
	r.members = sorted
	r.epoch++
}

// Members returns the sorted routable member ids (always non-empty:
// self is a member).
func (r *Router) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.members...)
}

// AdoptOverrides installs an override table if its generation is newer
// than the current one, returning whether it was adopted. The fleet
// leader publishes with PublishOverrides; followers adopt tables off
// heartbeats here.
func (r *Router) AdoptOverrides(gen uint64, table map[string]string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen <= r.gen {
		return false
	}
	r.gen = gen
	r.overrides = copyTable(table)
	r.epoch++
	return true
}

// PublishOverrides installs a new override table authored locally (the
// fleet leader), stamping it one generation past everything seen so
// far, and returns that generation.
func (r *Router) PublishOverrides(table map[string]string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	r.overrides = copyTable(table)
	r.epoch++
	return r.gen
}

// Overrides returns the current override table and its generation.
func (r *Router) Overrides() (uint64, map[string]string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen, copyTable(r.overrides)
}

// Epoch returns the current routing epoch.
func (r *Router) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// rendezvousWeight is the highest-random-weight score of (node, key):
// FNV-1a over node ⊕ key with a separator so ("ab","c") ≠ ("a","bc"),
// pushed through a 64-bit finalizer. Raw FNV-1a is not enough here:
// its final bytes barely avalanche, so key families sharing a long
// prefix ("stream-00" … "stream-07") keep the per-node ordering of the
// prefix hash and all elect the same owner — every stream of a
// workload piling onto one node. The multiply-xor-shift finalizer
// (splitmix64's mix) restores independence between similar keys.
func rendezvousWeight(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func copyTable(t map[string]string) map[string]string {
	out := make(map[string]string, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
