// Package archive implements the bounded elite archives both CARBON and
// COBRA maintain at each level (Table II: "UL/LL Archive size 100";
// Algorithm 1 lines 6 and 9). An archive keeps the best K entries ever
// offered to it, ordered best-first, with optional deduplication by a
// caller-supplied key.
//
// Add does work only for what it keeps. A full archive rejects an offer
// no better than its worst entry before keying or copying it; an admitted
// item is keyed once and copied once, and its key is stored beside it, so
// moving entries never recomputes a key.
package archive

import (
	"math"
	"sort"
)

// Entry pairs an archived item with the fitness it was archived at.
type Entry[T any] struct {
	Item    T
	Fitness float64
}

// slot is an entry plus its dedup key ("" when dedup is off).
type slot[T any] struct {
	Entry[T]
	key string
}

// Archive is a bounded best-K container. Lower fitness is better when
// Minimize is true, higher otherwise. The zero value is unusable; use New.
type Archive[T any] struct {
	cap      int
	minimize bool
	key      func(T) string // optional dedup key; nil disables dedup
	clone    func(T) T      // optional copy of an item the archive keeps
	slots    []slot[T]
	seen     map[string]int // key → index in slots
	// unordered is set once a NaN fitness is admitted. NaN compares
	// neither better nor worse than anything and is never evicted or
	// replaced, so the slots can stay out of order for good. Both of
	// Add's shortcuts (rejecting unkeyed against the worst entry, and
	// moving a replaced duplicate by rotation) rely on order, so an
	// unordered archive keys every offer and re-sorts on a replacement.
	unordered bool
}

// New creates an archive holding at most capacity entries. key may be
// nil (no deduplication); when set, offering an item whose key is
// already present keeps only the better of the two. clone may be nil
// (the archive keeps the offered item itself); when set, the archive
// keeps clone(item), and calls it only for an item it admits, so a
// caller may offer items it will go on mutating.
func New[T any](capacity int, minimize bool, key func(T) string, clone func(T) T) *Archive[T] {
	if capacity <= 0 {
		panic("archive: non-positive capacity")
	}
	a := &Archive[T]{cap: capacity, minimize: minimize, key: key, clone: clone}
	if key != nil {
		a.seen = make(map[string]int)
	}
	return a
}

func (a *Archive[T]) better(x, y float64) bool {
	if a.minimize {
		return x < y
	}
	return x > y
}

func (a *Archive[T]) own(item T) T {
	if a.clone != nil {
		return a.clone(item)
	}
	return item
}

// Add offers an item. It returns true if the archive changed (the item
// was inserted, possibly evicting the worst entry or a duplicate).
func (a *Archive[T]) Add(item T, fitness float64) bool {
	n := len(a.slots)
	full := n >= a.cap
	// In best-first order a duplicate is never worse than the worst
	// entry, so an offer that cannot displace the worst cannot replace a
	// duplicate either: reject it unkeyed.
	if full && !a.unordered && !a.better(fitness, a.slots[n-1].Fitness) {
		return false
	}
	var k string
	if a.key != nil {
		k = a.key(item)
		if idx, dup := a.seen[k]; dup {
			if !a.better(fitness, a.slots[idx].Fitness) {
				return false
			}
			a.replace(idx, a.own(item), fitness)
			return true
		}
	}
	if full {
		if !a.better(fitness, a.slots[n-1].Fitness) {
			return false
		}
		n--
		if a.key != nil {
			delete(a.seen, a.slots[n].key)
		}
		a.slots = a.slots[:n]
	}
	// Insert keeping best-first order.
	pos := sort.Search(n, func(i int) bool {
		return a.better(fitness, a.slots[i].Fitness)
	})
	a.slots = append(a.slots, slot[T]{})
	copy(a.slots[pos+1:], a.slots[pos:n])
	a.slots[pos] = slot[T]{Entry[T]{a.own(item), fitness}, k}
	if math.IsNaN(fitness) {
		a.unordered = true
	}
	a.reindex(pos, n+1)
	return true
}

// replace gives the duplicate at idx a better fitness and the new item,
// then restores best-first order. In an ordered archive the entry only
// moves up, past the entries in [0, idx) it now beats, and stays behind
// those it ties: one rotation gives the stable sort's order.
func (a *Archive[T]) replace(idx int, item T, fitness float64) {
	if a.unordered {
		a.slots[idx].Item, a.slots[idx].Fitness = item, fitness
		sort.SliceStable(a.slots, func(i, j int) bool {
			return a.better(a.slots[i].Fitness, a.slots[j].Fitness)
		})
		a.reindex(0, len(a.slots))
		return
	}
	pos := sort.Search(idx, func(i int) bool {
		return a.better(fitness, a.slots[i].Fitness)
	})
	k := a.slots[idx].key
	copy(a.slots[pos+1:idx+1], a.slots[pos:idx])
	a.slots[pos] = slot[T]{Entry[T]{item, fitness}, k}
	a.reindex(pos, idx+1)
}

// reindex records the positions of slots [from, to) in the key map.
func (a *Archive[T]) reindex(from, to int) {
	if a.key == nil {
		return
	}
	for i := from; i < to; i++ {
		a.seen[a.slots[i].key] = i
	}
}

// Len returns the number of archived entries.
func (a *Archive[T]) Len() int { return len(a.slots) }

// Best returns the best entry; ok is false when the archive is empty.
func (a *Archive[T]) Best() (Entry[T], bool) {
	if len(a.slots) == 0 {
		return Entry[T]{}, false
	}
	return a.slots[0].Entry, true
}

// At returns the i-th best entry (0 = best).
func (a *Archive[T]) At(i int) Entry[T] { return a.slots[i].Entry }

// Entries returns a copy of all entries, best-first.
func (a *Archive[T]) Entries() []Entry[T] {
	if len(a.slots) == 0 {
		return nil
	}
	es := make([]Entry[T], len(a.slots))
	for i := range a.slots {
		es[i] = a.slots[i].Entry
	}
	return es
}
