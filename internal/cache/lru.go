// Package cache provides a generic, size-bounded LRU cache with hit,
// miss, and eviction accounting, safe for concurrent use. It is the
// storage substrate shared by the batch engine's keyed result cache
// (internal/pipeline) and the compile service's shared response cache
// (internal/service): both need "compute once, reuse everywhere"
// semantics over bounded memory, and both report their counters — the
// pipeline in its run stats, the service on /metrics.
//
// The cache stores values, not computations. A caller that must compute
// a value at most once per key stores a handle that owns the in-flight
// computation and runs it outside the cache lock, dropping a stale handle
// with RemoveIf — see pipeline.Cache, whose entries are the compile
// service's one in-flight dedup.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a keyed cache bounded to a fixed number of entries, evicting the
// least recently used entry when a put exceeds capacity. The zero value
// is not usable; construct with New. All methods are safe for concurrent
// use.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
	stats Stats
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// Stats is a snapshot of a cache's accounting.
type Stats struct {
	// Hits counts Get and GetOrAdd calls that found their key.
	Hits uint64 `json:"hits"`
	// Misses counts Get and GetOrAdd calls that did not.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to respect capacity.
	Evictions uint64 `json:"evictions"`
	// Size is the current entry count.
	Size int `json:"size"`
	// Capacity is the configured bound; 0 means unbounded.
	Capacity int `json:"capacity"`
}

// New returns an empty LRU holding at most capacity entries. A capacity
// of 0 (or negative) means unbounded: the cache never evicts, which is
// the right default for deterministic batch runs whose working set is the
// job list itself.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	return &LRU[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value for key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Put inserts or replaces the value for key, marks it most recently
// used, and evicts the least recently used entry if the insert exceeded
// capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, val)
}

// GetOrAdd returns the value for key if present (marking it most
// recently used), otherwise stores and returns create(). The boolean
// reports whether the key was already present. create runs under the
// cache lock and must therefore be cheap — allocate a handle, don't
// compute through it (see the package comment).
func (c *LRU[K, V]) GetOrAdd(key K, create func() V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.stats.Misses++
	val := create()
	c.put(key, val)
	return val, false
}

// put inserts or replaces key with the lock held.
func (c *LRU[K, V]) put(key K, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.cap > 0 && len(c.items) > c.cap {
		oldest := c.order.Back()
		entry := oldest.Value.(*lruEntry[K, V])
		c.order.Remove(oldest)
		delete(c.items, entry.key)
		c.stats.Evictions++
	}
}

// Remove drops key if present, reporting whether it was.
func (c *LRU[K, V]) Remove(key K) bool {
	return c.RemoveIf(key, func(V) bool { return true })
}

// RemoveIf drops key if present and match accepts its value, reporting
// whether it did. match runs under the cache lock, so a caller can drop
// exactly the value it saw (say, a handle another caller has since
// replaced stays put) without a window between the test and the removal.
func (c *LRU[K, V]) RemoveIf(key K, match func(V) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || !match(el.Value.(*lruEntry[K, V]).val) {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Keys returns the cached keys from most to least recently used.
func (c *LRU[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry[K, V]).key)
	}
	return keys
}

// Stats returns a snapshot of the cache's accounting.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.items)
	s.Capacity = c.cap
	return s
}
