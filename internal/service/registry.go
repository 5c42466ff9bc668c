package service

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// shardedRegistry is a thread-safe map of live objects keyed by opaque
// ids, with optional TTL-based idle eviction. It is the bookkeeping half
// of the service: datasets and column sessions each live in one.
//
// The map is partitioned into shards, each with its own RWMutex and
// id→entry map; an id hashes (FNV-1a) to one shard, so operations on
// distinct ids mostly touch distinct locks and a sweep of one shard
// never blocks traffic on another. Reads (get, touch) take only the
// shard's read lock — the idle timestamp is an atomic, so refreshing it
// does not serialize readers. Creation order is preserved across shards
// by a global atomic sequence number, consulted only by list.
type shardedRegistry[V any] struct {
	prefix string
	ttl    time.Duration // 0 = never expire
	clock  Clock
	seq    atomic.Int64 // global creation order, across shards
	shards []*regShard[V]
}

type regShard[V any] struct {
	mu    sync.RWMutex
	items map[string]*regItem[V]
}

type regItem[V any] struct {
	val      V
	seq      int64
	created  time.Time
	lastUsed atomic.Int64 // unix nanoseconds; atomic so reads stay reads
}

func newRegistry[V any](prefix string, shards int, ttl time.Duration, clock Clock) *shardedRegistry[V] {
	if shards < 1 {
		shards = 1
	}
	r := &shardedRegistry[V]{
		prefix: prefix,
		ttl:    ttl,
		clock:  clock,
		shards: make([]*regShard[V], shards),
	}
	for i := range r.shards {
		r.shards[i] = &regShard[V]{items: make(map[string]*regItem[V])}
	}
	return r
}

// numShards returns the shard count.
func (r *shardedRegistry[V]) numShards() int { return len(r.shards) }

// shardIndex returns the shard an id lives in (FNV-1a of the id).
func (r *shardedRegistry[V]) shardIndex(id string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(len(r.shards)))
}

func (r *shardedRegistry[V]) shard(id string) *regShard[V] {
	return r.shards[r.shardIndex(id)]
}

// newID returns an unguessable opaque id like "ds_9f86d081884c7d65".
func (r *shardedRegistry[V]) newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a sequence-derived id keeps the service alive.
		return r.prefix + "_" + hex.EncodeToString([]byte{byte(r.seq.Load())})
	}
	return r.prefix + "_" + hex.EncodeToString(b[:])
}

// newItem builds a registry entry stamped with the current time and the
// next global sequence number.
func (r *shardedRegistry[V]) newItem(v V) *regItem[V] {
	now := r.clock.Now()
	it := &regItem[V]{val: v, seq: r.seq.Add(1), created: now}
	it.lastUsed.Store(now.UnixNano())
	return it
}

// add stores v under a fresh id and returns the id. assign, when
// non-nil, receives the id inside the critical section *before* v
// becomes visible to other registry users, so values that carry their
// own id field can set it without racing readers.
func (r *shardedRegistry[V]) add(v V, assign func(id string)) string {
	for {
		id := r.newID()
		sh := r.shard(id)
		sh.mu.Lock()
		if _, taken := sh.items[id]; taken {
			sh.mu.Unlock()
			continue
		}
		if assign != nil {
			assign(id)
		}
		sh.items[id] = r.newItem(v)
		sh.mu.Unlock()
		return id
	}
}

// addWithID stores v under a caller-supplied id (recovery re-registers
// restored entries with their persisted ids). It reports false when the
// id is already live.
func (r *shardedRegistry[V]) addWithID(id string, v V) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, taken := sh.items[id]; taken {
		return false
	}
	sh.items[id] = r.newItem(v)
	return true
}

// get returns the value and refreshes its idle timer. Read lock only:
// concurrent gets on the same shard do not serialize.
func (r *shardedRegistry[V]) get(id string) (V, bool) {
	sh := r.shard(id)
	sh.mu.RLock()
	it, ok := sh.items[id]
	sh.mu.RUnlock()
	if !ok {
		var zero V
		return zero, false
	}
	it.lastUsed.Store(r.clock.Now().UnixNano())
	return it.val, true
}

// peek returns the value WITHOUT refreshing its idle timer. Ownership
// checks use it so probing a foreign id never keeps the entry alive.
func (r *shardedRegistry[V]) peek(id string) (V, bool) {
	sh := r.shard(id)
	sh.mu.RLock()
	it, ok := sh.items[id]
	sh.mu.RUnlock()
	if !ok {
		var zero V
		return zero, false
	}
	return it.val, true
}

// touch refreshes the idle timer without reading the value.
func (r *shardedRegistry[V]) touch(id string) {
	sh := r.shard(id)
	sh.mu.RLock()
	it, ok := sh.items[id]
	sh.mu.RUnlock()
	if ok {
		it.lastUsed.Store(r.clock.Now().UnixNano())
	}
}

// remove deletes the id and returns the removed value.
func (r *shardedRegistry[V]) remove(id string) (V, bool) {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.items[id]
	if !ok {
		var zero V
		return zero, false
	}
	delete(sh.items, id)
	return it.val, true
}

// list returns the live values in creation order.
func (r *shardedRegistry[V]) list() []V {
	var items []*regItem[V]
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, it := range sh.items {
			items = append(items, it)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(items, func(a, b int) bool { return items[a].seq < items[b].seq })
	out := make([]V, len(items))
	for i, it := range items {
		out[i] = it.val
	}
	return out
}

// size returns the number of live entries across all shards.
func (r *shardedRegistry[V]) size() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// sizes returns the per-shard entry counts (shard-distribution tests
// and startup logging).
func (r *shardedRegistry[V]) sizes() []int {
	out := make([]int, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.RLock()
		out[i] = len(sh.items)
		sh.mu.RUnlock()
	}
	return out
}

// rangeShard iterates one shard without snapshotting it, calling f under
// the shard's read lock until f returns false. f must not call back into
// the registry (the shard lock is held) and must not block.
func (r *shardedRegistry[V]) rangeShard(i int, f func(id string, v V) bool) {
	sh := r.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id, it := range sh.items {
		if !f(id, it.val) {
			return
		}
	}
}

// rangeAll iterates every shard with rangeShard, shard by shard — no
// cross-shard lock is ever held, so a slow consumer only ever delays one
// shard's traffic. The same restrictions as rangeShard apply to f.
func (r *shardedRegistry[V]) rangeAll(f func(id string, v V) bool) {
	for i := range r.shards {
		stop := false
		r.rangeShard(i, func(id string, v V) bool {
			if !f(id, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// expiredShard returns the ids in shard i idle longer than the TTL. The
// caller removes them (eviction may need per-value teardown the registry
// cannot do). Only shard i's read lock is taken: a sweep never blocks
// traffic on other shards.
func (r *shardedRegistry[V]) expiredShard(i int) []string {
	if r.ttl <= 0 {
		return nil
	}
	cutoff := r.clock.Now().Add(-r.ttl).UnixNano()
	sh := r.shards[i]
	var ids []string
	sh.mu.RLock()
	for id, it := range sh.items {
		if it.lastUsed.Load() < cutoff {
			ids = append(ids, id)
		}
	}
	sh.mu.RUnlock()
	sort.Strings(ids)
	return ids
}
