// Package lru provides the small least-recently-used map shared by the
// engine's plan cache, the server's per-connection prepared-statement
// registry and each fragment's compiled filters. It is deliberately not
// synchronized: each owner brings the locking discipline its context
// requires (a mutex for the engine-wide cache and a fragment's, nothing for
// a per-connection registry touched by one goroutine).
package lru

import "container/list"

// Cache is an LRU map from K to V with a fixed capacity; inserting
// beyond capacity evicts the least-recently-used entry.
type Cache[K comparable, V any] struct {
	cap     int
	order   *list.List // of entry[K, V], front = most recently used
	entries map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, order: list.New(), entries: map[K]*list.Element{}}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(entry[K, V]).val, true
}

// Put inserts or refreshes key, evicting the least-recently-used entry
// beyond capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value = entry[K, V]{key: key, val: val}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(entry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(entry[K, V]).key)
	}
}

// Delete removes key, reporting whether it was present.
func (c *Cache[K, V]) Delete(key K) bool {
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, key)
	return true
}

// Len reports the number of live entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }
