// Package lru implements the eviction queues used by Bandana's DRAM cache.
//
// The paper's cache is a Least-Recently-Used queue with two twists:
//
//   - prefetched vectors may be inserted at an arbitrary *position* in the
//     eviction queue rather than at the MRU end (§4.3.1, Figure 11a), and
//   - a keys-only "shadow cache" simulates a cache without prefetches and is
//     consulted as an admission filter (§4.3.1, Figure 11b).
//
// Cache supports O(1) lookups, MRU insertion and eviction, and amortised
// O(1) positional insertion via a segmented queue: the queue is divided into
// a fixed number of equally sized segments; inserting at fraction f places
// the item at the head of segment floor(f*segments), and overflowing
// segments cascade their LRU item into the next segment. An item inserted at
// fraction f therefore survives roughly (1-f)*capacity distinct insertions
// before being evicted, matching the positional semantics of the paper.
package lru

import "fmt"

// entry is a node in the segmented doubly-linked list.
type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
	seg        int
}

// segment is one region of the conceptual eviction queue, ordered MRU→LRU.
type segment[K comparable, V any] struct {
	head, tail *entry[K, V]
	size       int
}

func (s *segment[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
	s.size++
}

func (s *segment[K, V]) remove(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	s.size--
}

// EvictFunc is called with the key and value of every item evicted due to
// capacity pressure (not for explicit Remove calls).
type EvictFunc[K comparable, V any] func(key K, value V)

// Cache is a fixed-capacity segmented LRU cache. The zero value is not
// usable; construct with New.
type Cache[K comparable, V any] struct {
	capacity int
	segments []segment[K, V]
	items    map[K]*entry[K, V]
	onEvict  EvictFunc[K, V]
	// spare is the node of the last eviction, kept for the next insert: a
	// full cache then inserts without allocating.
	spare *entry[K, V]
}

// DefaultSegments is the number of positional segments used by New.
const DefaultSegments = 16

// New creates an LRU cache holding at most capacity items, using
// DefaultSegments positional segments. capacity must be positive.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewSegmented[K, V](capacity, DefaultSegments, nil)
}

// NewSegmented creates an LRU cache with an explicit segment count and an
// optional eviction callback. segments is clamped to [1, capacity].
func NewSegmented[K comparable, V any](capacity, segments int, onEvict EvictFunc[K, V]) *Cache[K, V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("lru: capacity must be positive, got %d", capacity))
	}
	if segments < 1 {
		segments = 1
	}
	if segments > capacity {
		segments = capacity
	}
	return &Cache[K, V]{
		capacity: capacity,
		segments: make([]segment[K, V], segments),
		items:    make(map[K]*entry[K, V], capacity),
		onEvict:  onEvict,
	}
}

// Len returns the number of cached items.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cap returns the configured capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

// Contains reports whether key is cached, without affecting recency.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Peek returns the value for key without affecting recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Get returns the value for key and promotes it to the MRU position.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.promote(e)
	return e.value, true
}

// Touch promotes key to the MRU position if present and reports whether it
// was found.
func (c *Cache[K, V]) Touch(key K) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.promote(e)
	return true
}

func (c *Cache[K, V]) promote(e *entry[K, V]) {
	c.segments[e.seg].remove(e)
	e.seg = 0
	c.segments[0].pushFront(e)
	c.cascade(0)
}

// Add inserts key at the MRU position (or promotes and updates it if already
// present). It returns the evicted key and true if an eviction occurred.
func (c *Cache[K, V]) Add(key K, value V) (evicted K, wasEvicted bool) {
	return c.AddAt(key, value, 0)
}

// AddAt inserts key at the queue position given by fraction pos in [0, 1],
// where 0 is the MRU end (top of the eviction queue in the paper's terms)
// and values close to 1 are near the LRU end. If key is already cached, its
// value is updated and it is moved to the requested position. It returns the
// evicted key and true if the insertion caused an eviction.
func (c *Cache[K, V]) AddAt(key K, value V, pos float64) (evicted K, wasEvicted bool) {
	if pos < 0 {
		pos = 0
	}
	if pos > 1 {
		pos = 1
	}
	seg := int(pos * float64(len(c.segments)))
	if seg >= len(c.segments) {
		seg = len(c.segments) - 1
	}

	if e, ok := c.items[key]; ok {
		e.value = value
		c.segments[e.seg].remove(e)
		e.seg = seg
		c.segments[seg].pushFront(e)
		c.cascade(seg)
		return evicted, false
	}

	e := c.spare
	if e == nil {
		e = new(entry[K, V])
	}
	c.spare = nil
	*e = entry[K, V]{key: key, value: value, seg: seg}
	c.items[key] = e
	c.segments[seg].pushFront(e)

	if len(c.items) > c.capacity {
		evicted, wasEvicted = c.evictOne(), true
	}
	c.cascade(seg)
	return evicted, wasEvicted
}

// Resize changes the cache capacity, evicting LRU items one at a time (via
// the eviction callback) when shrinking below the current population. The
// positional segments are preserved: items keep their relative queue
// positions and the segment balance target adapts to the new capacity.
// Capacities below 1 are clamped to 1. It returns the number of evictions.
func (c *Cache[K, V]) Resize(capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	evicted := 0
	for len(c.items) > c.capacity {
		c.evictOne()
		evicted++
	}
	// The bound itself moved, so any segment may be over it.
	for i := range c.segments {
		c.cascade(i)
	}
	return evicted
}

// Remove deletes key from the cache and reports whether it was present. The
// eviction callback is not invoked.
func (c *Cache[K, V]) Remove(key K) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.segments[e.seg].remove(e)
	delete(c.items, key)
	return true
}

// evictOne removes the LRU item of the last non-empty segment.
func (c *Cache[K, V]) evictOne() K {
	for i := len(c.segments) - 1; i >= 0; i-- {
		s := &c.segments[i]
		if s.tail == nil {
			continue
		}
		victim := s.tail
		s.remove(victim)
		delete(c.items, victim.key)
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.value)
		}
		key := victim.key
		*victim = entry[K, V]{} // drop the references the node held
		c.spare = victim
		return key
	}
	var zero K
	return zero
}

// cascade restores the bound every segment but the last keeps — at most
// ceil(capacity/segments) items, which is what keeps the positional
// interpretation of segments stable — after segment `from` gained an item:
// its overflow moves to the head of the next segment, whose overflow moves on
// in turn, and the walk stops at the first segment still within the bound
// (nothing after it changed).
func (c *Cache[K, V]) cascade(from int) {
	target := (c.capacity + len(c.segments) - 1) / len(c.segments)
	for i := from; i < len(c.segments)-1 && c.segments[i].size > target; i++ {
		s := &c.segments[i]
		for s.size > target {
			victim := s.tail
			s.remove(victim)
			victim.seg = i + 1
			c.segments[i+1].pushFront(victim)
		}
	}
}

// Keys returns all cached keys ordered from MRU to LRU. Intended for tests
// and diagnostics; O(n).
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, len(c.items))
	for i := range c.segments {
		for e := c.segments[i].head; e != nil; e = e.next {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// Clear removes every item without invoking the eviction callback.
func (c *Cache[K, V]) Clear() {
	c.items = make(map[K]*entry[K, V], c.capacity)
	for i := range c.segments {
		c.segments[i] = segment[K, V]{}
	}
}

// checkInvariants validates internal consistency; exposed for tests via
// export_test.go.
func (c *Cache[K, V]) checkInvariants() error {
	total := 0
	target := (c.capacity + len(c.segments) - 1) / len(c.segments)
	for i := range c.segments {
		s := &c.segments[i]
		if i < len(c.segments)-1 && s.size > target {
			return fmt.Errorf("segment %d holds %d items, over the bound of %d cascade keeps", i, s.size, target)
		}
		n := 0
		for e := s.head; e != nil; e = e.next {
			if e.seg != i {
				return fmt.Errorf("entry %v records segment %d but lives in %d", e.key, e.seg, i)
			}
			if me, ok := c.items[e.key]; !ok || me != e {
				return fmt.Errorf("entry %v not indexed", e.key)
			}
			n++
			if n > len(c.items)+1 {
				return fmt.Errorf("cycle detected in segment %d", i)
			}
		}
		if n != s.size {
			return fmt.Errorf("segment %d size %d, counted %d", i, s.size, n)
		}
		total += n
	}
	if total != len(c.items) {
		return fmt.Errorf("segments hold %d items, index holds %d", total, len(c.items))
	}
	if total > c.capacity {
		return fmt.Errorf("cache over capacity: %d > %d", total, c.capacity)
	}
	return nil
}
