package lock

import "sync"

// shard is one element of a sharded cache: //lint:sharded hardens the
// guarded-field rule to every function that touches it.
//
//lint:sharded
type shard struct {
	mu sync.RWMutex
	n  int
}

// Cache fans out over shards.
type Cache struct {
	shards []shard
}

// Len reads a shard's guarded field through a named handle without the
// shard lock — flagged even though Cache itself carries no mutex and
// Len is a method of Cache, not shard.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		total += sh.n // want: sharded field without lock
	}
	return total
}

// drain writes a guarded shard field from an unexported plain function:
// the sharded rule applies beyond exported methods.
func drain(sh *shard) {
	sh.n = 0 // want: sharded field without lock
}

// LenSafe is the correct shape: RLock the shard before reading.
func (c *Cache) LenSafe() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		total += sh.n
		sh.mu.RUnlock()
	}
	return total
}

// resetLocked is also correct: the *Locked suffix asserts the caller
// holds the shard lock.
func resetLocked(sh *shard) {
	sh.n = 0
}

// gshard is the same element made generic, the shape the real sharded
// core has: the directive sits on the declaration, and every
// instantiation (gshard[[]int] below, gshard[C] in a method) inherits it.
//
//lint:sharded
type gshard[C any] struct {
	mu sync.RWMutex
	c  C
}

// Sizes reads the guarded child of an instantiated shard without its
// lock.
func Sizes(all []gshard[[]int]) int {
	total := 0
	for i := range all {
		sh := &all[i]
		total += len(sh.c) // want: sharded field without lock
	}
	return total
}

// child does the same from a method of the generic type itself.
func (s *gshard[C]) child() C {
	return s.c // want: sharded field without lock
}

// childSafe is the correct shape.
func (s *gshard[C]) childSafe() C {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c
}
