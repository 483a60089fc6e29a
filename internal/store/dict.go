package store

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// dict is an interned string dictionary: a bijection between strings and
// dense uint32 IDs. One dictionary instance serves one shard's tag (or
// value) namespace — every tag/value column of the shard's documents holds
// IDs of the shard dictionary, so equal strings are stored once and
// compared as integers.
//
// Reads are lock-free. The current version (strs, slots) is published
// through an atomic pointer; strs maps ID -> string and slots is an
// open-addressing hash table from string to ID. Interning — by document
// loads and by updates whose fragments carry new strings — runs under a
// mutex and pays only for the strings it adds (amortized):
//
//   - strs is append-grown in place. A published version never reads past
//     its own length, and the pointer swap orders the appends before any
//     reader that can see the new length.
//   - A new string claims one empty slot with an atomic store; readers
//     probe with atomic loads and skip IDs beyond their version's length,
//     so a reader never sees a string its version does not hold.
//   - Once the table passes half full, the next version gets a fresh table
//     of four times the string count (one rehash of every string), so the
//     rehash work over a dictionary's life is a constant per string.
type dict struct {
	mu sync.Mutex
	v  atomic.Pointer[dictV]
}

// dictV is one published version of the dictionary.
type dictV struct {
	// strs maps ID -> string.
	strs []string
	// slots is a linear-probing table of ID+1 (0 = empty), shared with
	// later versions until a rehash replaces it; its length is a power of
	// two.
	slots []atomic.Uint32
}

var (
	emptyDictV = &dictV{}
	dictSeed   = maphash.MakeSeed()
)

func newDict() *dict {
	d := &dict{}
	d.v.Store(emptyDictV)
	return d
}

// newFrozenDict returns a dictionary pre-populated with strs (ID i maps to
// strs[i]); used when opening a snapshot, where the string data are views
// into the mapped file and only the lookup table lives on the heap.
func newFrozenDict(strs []string) *dict {
	d := &dict{}
	d.v.Store(&dictV{strs: strs, slots: rehash(strs, len(strs))})
	return d
}

// rehash builds a table for strs sized for need strings at most a quarter
// full.
func rehash(strs []string, need int) []atomic.Uint32 {
	size := 16
	for size < 4*need {
		size *= 2
	}
	slots := make([]atomic.Uint32, size)
	for id, s := range strs {
		insertSlot(slots, s, uint32(id))
	}
	return slots
}

// insertSlot stores id in the first empty slot of s's probe sequence.
func insertSlot(slots []atomic.Uint32, s string, id uint32) {
	mask := uint64(len(slots) - 1)
	for i := maphash.String(dictSeed, s) & mask; ; i = (i + 1) & mask {
		if slots[i].Load() == 0 {
			slots[i].Store(id + 1)
			return
		}
	}
}

// find resolves s within one version.
func (v *dictV) find(s string) (uint32, bool) {
	if len(v.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(v.slots) - 1)
	for i := maphash.String(dictSeed, s) & mask; ; i = (i + 1) & mask {
		e := v.slots[i].Load()
		if e == 0 {
			return 0, false
		}
		if id := e - 1; int(id) < len(v.strs) && v.strs[id] == s {
			return id, true
		}
	}
}

// lookup resolves a string to its ID without locking.
func (d *dict) lookup(s string) (uint32, bool) { return d.v.Load().find(s) }

// str resolves an ID to its string without locking.
func (d *dict) str(id uint32) string { return d.v.Load().strs[id] }

// size returns the number of interned strings.
func (d *dict) size() int { return len(d.v.Load().strs) }

// internAll interns every string of local and returns the global ID of
// each, aligned with local. The batch publishes one new version; its cost
// is one probe per string plus, amortized, constant work per string added.
func (d *dict) internAll(local []string) []uint32 {
	out := make([]uint32, len(local))
	d.mu.Lock()
	defer d.mu.Unlock()
	next := *d.v.Load()
	added := false
	for i, s := range local {
		id, ok := next.find(s)
		if !ok {
			if 2*(len(next.strs)+1) > len(next.slots) {
				next.slots = rehash(next.strs, len(next.strs)+len(local)-i)
			}
			id = uint32(len(next.strs))
			next.strs = append(next.strs, s)
			insertSlot(next.slots, s, id)
			added = true
		}
		out[i] = id
	}
	if added {
		d.v.Store(&next)
	}
	return out
}
