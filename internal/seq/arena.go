package seq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tlc/internal/governor"
	"tlc/internal/store"
	"tlc/internal/xmltree"
)

// slabNodes is the number of Node structs per slab. A Node is ~100 bytes,
// so one slab is ~50KB — large enough that a query allocating millions of
// witness nodes pays thousands of allocations instead of millions, small
// enough that a tiny query wastes at most one mostly-empty slab.
const slabNodes = 512

// slab is one contiguous allocation of witness nodes. Nodes are handed out
// by bumping len(buf); the backing array is never reallocated (cap is
// fixed), so pointers into it stay valid for the life of the slab.
type slab struct {
	buf []Node
}

// Arena is a per-evaluation slab allocator for witness nodes. One Arena is
// created per query run (see algebra.NewContextFor); every operator
// allocates its short-lived nodes from it, turning the per-node `new`
// into a pointer bump most of the time.
//
// Concurrency: partially filled slabs live in a sync.Pool. A goroutine
// Gets a slab (gaining exclusive access), bumps it, and Puts it back, so
// the parallel executor's workers allocate without a shared lock. A slab
// dropped by the pool only wastes its unused tail — nodes already handed
// out are kept alive by the trees referencing them.
//
// Lifetime: slabs are never recycled across queries. Result trees returned
// to the caller keep their slabs reachable, and the GC frees everything
// when the result is dropped — there is no explicit release, which is what
// makes handing aliased trees to the plan-cache/service layer safe.
//
// A nil *Arena is valid and falls back to plain `new` for every node —
// the path used by package-level constructors, tests, and nodes that must
// outlive any particular run.
type Arena struct {
	free  sync.Pool // *slab with spare capacity
	nodes atomic.Int64
	slabs atomic.Int64
	// gov, when non-nil, budgets this arena's memory: one slab's worth
	// (slabNodes nodes, slabBytes) is charged against the run's governor
	// each time the arena's node count enters a new multiple of slabNodes,
	// and an exhausted budget aborts the allocating query via
	// governor.Abort (recovered into a typed *ErrBudgetExceeded at the
	// evaluator's containment barriers). Charging by the node count rather
	// than per slab created keeps governed usage independent of pool
	// luck — sync.Pool may drop any Put, and does so at random under the
	// race detector — while slab granularity keeps the check off the
	// per-node fast path.
	gov *governor.Governor
}

// slabBytes is the memory charged to the governor per slab.
const slabBytes = slabNodes * int64(unsafe.Sizeof(Node{}))

// Engine-wide allocation counters, surfaced in /varz. They deliberately
// count since process start, not per arena.
var (
	arenaNodesTotal atomic.Int64
	arenaSlabsTotal atomic.Int64
	plainNodesTotal atomic.Int64
)

// ArenaTotals reports process-wide witness-node allocation counts:
// arena-backed nodes, slabs allocated, and plain `new` fallbacks (nil
// arena or package-level constructors).
func ArenaTotals() (nodes, slabs, plain int64) {
	return arenaNodesTotal.Load(), arenaSlabsTotal.Load(), plainNodesTotal.Load()
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// WithGovernor makes the arena charge its slab allocations against g (nil
// disables budgeting) and returns the arena for chaining. Set once, before
// allocation starts.
func (a *Arena) WithGovernor(g *governor.Governor) *Arena {
	if a != nil {
		a.gov = g
	}
	return a
}

// ArenaStats is a snapshot of one arena's allocation counters.
type ArenaStats struct {
	// Nodes is the number of witness nodes handed out by this arena.
	Nodes int64
	// Slabs is the number of slabs allocated to serve them.
	Slabs int64
}

func (s ArenaStats) String() string {
	return fmt.Sprintf("arena: %d nodes in %d slabs", s.Nodes, s.Slabs)
}

// Stats snapshots the arena's counters. Safe to call concurrently with
// allocation.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Nodes: a.nodes.Load(), Slabs: a.slabs.Load()}
}

// node returns a zeroed witness node. Arena-backed when a is non-nil,
// plain `new` otherwise.
func (a *Arena) node() *Node {
	if a == nil {
		plainNodesTotal.Add(1)
		return &Node{}
	}
	if a.nodes.Add(1)%slabNodes == 1 {
		if err := a.gov.AddAlloc(slabNodes, slabBytes); err != nil {
			// No error return exists on the node-allocation path; abort the
			// query with a controlled panic the evaluator barriers convert
			// back into the budget error.
			governor.Abort(err)
		}
	}
	arenaNodesTotal.Add(1)
	s, _ := a.free.Get().(*slab)
	if s == nil || len(s.buf) == cap(s.buf) {
		s = &slab{buf: make([]Node, 0, slabNodes)}
		a.slabs.Add(1)
		arenaSlabsTotal.Add(1)
	}
	s.buf = append(s.buf, Node{})
	n := &s.buf[len(s.buf)-1]
	a.free.Put(s)
	return n
}

// StoreNode returns a witness node referencing the store node at
// (doc, ord), allocated from the arena. Kind, tag and value are cached
// from the store's columns (tag and value are dictionary-interned
// strings, so caching them copies two string headers, not bytes).
func (a *Arena) StoreNode(doc store.DocID, ord int32, kind xmltree.Kind, tag, value string) *Node {
	n := a.node()
	n.Doc, n.Ord = doc, ord
	n.Kind, n.Tag, n.Value = kind, tag, value
	return n
}

// StoreNodeOf is StoreNode reading the cached fields from the columnar
// document view d (which must be the view of doc).
func (a *Arena) StoreNodeOf(doc store.DocID, ord int32, d *store.Doc) *Node {
	return a.StoreNode(doc, ord, d.Kind(ord), d.Tag(ord), d.Value(ord))
}

// TempElement returns a fresh temporary element node from the arena.
func (a *Arena) TempElement(tag string) *Node {
	n := a.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.Tag = xmltree.Element, tag
	return n
}

// TempText returns a fresh temporary text node from the arena.
func (a *Arena) TempText(value string) *Node {
	n := a.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.Tag, n.Value = xmltree.Text, xmltree.TextTag, value
	return n
}

// TempAttr returns a fresh temporary attribute node from the arena; name
// is stored with the "@" prefix like stored attributes.
func (a *Arena) TempAttr(name, value string) *Node {
	n := a.node()
	n.Ord, n.TempID = -1, tempCounter.Add(1)
	n.Kind, n.Tag, n.Value = xmltree.Attribute, "@"+name, value
	return n
}

// NewTree returns a tree rooted at root whose future node copies (Mutable,
// Clone) draw from this arena.
func (a *Arena) NewTree(root *Node) *Tree {
	return &Tree{Root: root, arena: a}
}
