package store

// This file implements the store half of the MVCC update subsystem: the
// subtree splice primitive and the versioned commit.
//
// A splice is the one structural edit every update reduces to: under a
// parent element P, delete a contiguous run of whole sibling subtrees
// [At, DelEnd) and/or insert one fragment subtree at position At. Because
// the paper's interval node IDs make every structural relation a pure
// function of (ordinal, end, level), the spliced document is computed by
// block copies — survivors before the splice point keep their ordinals,
// survivors after it shift by (inserted − deleted), so each column is the
// old prefix, the fragment and the old suffix, with one add loop over the
// suffix's positional columns (end, parent) and an O(depth) walk that
// stretches or shrinks the ancestor intervals. Nothing is edited in place:
// BuildSplice produces a fresh *Doc (a new version) and Commit swaps the
// copy-on-write directory entry, so readers pinned on the old version keep
// a consistent view to completion while writers never wait for them.
//
// The tag/value postings indexes are maintained incrementally: for every
// dictionary ID, the new postings list is the concatenation of the
// unshifted prefix (< At), the fragment's ordinals ([At, At+m)), and the
// shifted suffix (>= DelEnd). Only the lists of IDs the splice deletes or
// inserts are split; every other list keeps its length, so runs of them
// are block-copied with the suffix shift applied in place.
// The statistics catalog is maintained by exact deltas in the size of the
// splice: each deleted and inserted node adjusts its tag cardinality, its
// parent pair and its distinct-ancestor pairs by ±1; a (tag, value) pair
// enters or leaves the distinct-value count exactly when the other
// version holds no node with that tag and value; and a tag's level bounds
// are rescanned only when a deleted node sat on one of them.
//
// One invariant keeps the arithmetic exact: a splice must not change the
// concatenated text content of the parent P. Deleting an element between
// two text siblings therefore extends the deletion to both texts and
// re-inserts one merged text node (the mutate package does this), which is
// also exactly what re-parsing the serialized document would produce.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"

	"tlc/internal/faultinject"
	"tlc/internal/xmltree"
)

// Typed mutation errors.
var (
	// ErrVersionConflict reports a commit whose base document version was
	// superseded by a concurrent commit; the caller must re-read and retry.
	ErrVersionConflict = errors.New("store: stale document version")
	// ErrConcurrentMutation reports an operation that cannot run while
	// writers are in flight (LoadSnapshot).
	ErrConcurrentMutation = errors.New("store: concurrent mutation in flight")
	// ErrDurability reports a commit vetoed because its write-ahead log
	// record could not be persisted; the store is unchanged.
	ErrDurability = errors.New("store: durable log write failed")
	// ErrBadSplice reports a structurally invalid splice specification.
	ErrBadSplice = errors.New("store: invalid splice")
	// ErrSpliceContent reports a splice that would change the concatenated
	// text content of the parent element, which the incremental index and
	// statistics maintenance rely on being invariant.
	ErrSpliceContent = errors.New("store: splice changes parent text content")
)

// SpliceOp is one structural edit of a document: under the element at
// ordinal Parent, delete the sibling subtrees covering ordinals
// [At, DelEnd) and insert Frag (a single-rooted fragment) at position At.
// DelEnd == At deletes nothing (pure insert); Frag == nil inserts nothing
// (pure delete); both at once is a replace.
type SpliceOp struct {
	// Parent is the ordinal of the element the edit happens under.
	Parent int32
	// At is the splice position: the ordinal of the first deleted node,
	// and the ordinal the fragment root lands on. It must be a child
	// boundary of Parent (the start of a child subtree, or end(Parent)+1
	// to append after the last child).
	At int32
	// DelEnd is the exclusive end of the deleted ordinal range. The range
	// [At, DelEnd) must cover whole sibling subtrees of Parent.
	DelEnd int32
	// Frag is the fragment to insert, in parsed preorder form; its root
	// becomes a child of Parent at position At. Levels in the fragment are
	// relative (root at 0). Nil for a pure delete.
	Frag *xmltree.Document
}

// SpliceResult summarizes a built splice.
type SpliceResult struct {
	// NodesRemoved and NodesAdded count the deleted range and the
	// fragment.
	NodesRemoved, NodesAdded int
	// StatsDeltas counts the individual ±1 adjustments applied to the
	// statistics catalog (tag cardinalities, child pairs, ancestor pairs).
	StatsDeltas int
}

// BuildSplice computes the new version of document d produced by op. The
// input document is not modified; the result is a fresh *Doc with
// version d.Version()+1 that shares d's dictionaries. The heavy work runs
// outside every lock — pass the result to Commit to publish it.
func (s *Store) BuildSplice(d *Doc, op SpliceOp) (*Doc, SpliceResult, error) {
	var res SpliceResult
	n := int32(d.Len())
	P, d0, d1 := op.Parent, op.At, op.DelEnd
	if P < 0 || P >= n || xmltree.Kind(d.c.kind[P]) != xmltree.Element {
		return nil, res, fmt.Errorf("%w: parent %d is not an element", ErrBadSplice, P)
	}
	limit := d.c.end[P] + 1
	if d0 <= P || d0 > limit || d1 < d0 || d1 > limit {
		return nil, res, fmt.Errorf("%w: range [%d, %d) outside parent %d", ErrBadSplice, d0, d1, P)
	}
	if d0 <= d.c.end[P] && d.c.parent[d0] != P {
		return nil, res, fmt.Errorf("%w: position %d is not a child boundary of %d", ErrBadSplice, d0, P)
	}
	for c := d0; c < d1; {
		if d.c.parent[c] != P {
			return nil, res, fmt.Errorf("%w: node %d is not a child of %d", ErrBadSplice, c, P)
		}
		c = d.c.end[c] + 1
		if c > d1 {
			return nil, res, fmt.Errorf("%w: range [%d, %d) splits a subtree", ErrBadSplice, d0, d1)
		}
	}
	var m int32
	if op.Frag != nil {
		if err := op.Frag.Validate(); err != nil {
			return nil, res, fmt.Errorf("%w: fragment: %v", ErrBadSplice, err)
		}
		m = int32(len(op.Frag.Nodes))
	}
	if m == 0 && d1 == d0 {
		return nil, res, fmt.Errorf("%w: empty splice", ErrBadSplice)
	}

	delN := d1 - d0
	shift := m - delN
	res.NodesRemoved, res.NodesAdded = int(delN), int(m)

	// Every column is prefix ++ fragment ++ suffix; levels, kinds, tags and
	// values of survivors never change.
	nd := &Doc{
		name:  d.name,
		id:    d.id,
		shard: d.shard,
		c: cols{
			end:    spliceCol(d.c.end, d0, d1, m),
			level:  spliceCol(d.c.level, d0, d1, m),
			parent: spliceCol(d.c.parent, d0, d1, m),
			kind:   spliceCol(d.c.kind, d0, d1, m),
			tag:    spliceCol(d.c.tag, d0, d1, m),
			val:    spliceCol(d.c.val, d0, d1, m),
		},
		tags:    d.tags,
		vals:    d.vals,
		version: d.version + 1,
	}

	// Fragment: local preorder shifted to [At, At+m), levels rebased under
	// P, strings interned into the document's dictionaries.
	if m > 0 {
		var localTags, localVals []string
		localTagIdx := make(map[string]uint32)
		localValIdx := make(map[string]uint32)
		fragTag := make([]uint32, m)
		fragVal := make([]uint32, m) // local ID + 1; 0 = no content
		for k := int32(0); k < m; k++ {
			fn := &op.Frag.Nodes[k]
			lt, ok := localTagIdx[fn.Tag]
			if !ok {
				lt = uint32(len(localTags))
				localTags = append(localTags, fn.Tag)
				localTagIdx[fn.Tag] = lt
			}
			fragTag[k] = lt
			content, hasContent := "", false
			switch fn.Kind {
			case xmltree.Attribute, xmltree.Text:
				content, hasContent = fn.Value, true
			case xmltree.Element:
				if c := op.Frag.Content(k); c != "" {
					content, hasContent = c, true
				}
			}
			if hasContent {
				lv, ok := localValIdx[content]
				if !ok {
					lv = uint32(len(localVals))
					localVals = append(localVals, content)
					localValIdx[content] = lv
				}
				fragVal[k] = lv + 1
			}
		}
		gTag := d.tags.internAll(localTags)
		gVal := d.vals.internAll(localVals)
		baseLevel := d.c.level[P] + 1
		for k := int32(0); k < m; k++ {
			fn := &op.Frag.Nodes[k]
			j := d0 + k
			nd.c.end[j] = fn.ID.End + d0
			nd.c.level[j] = fn.ID.Level + baseLevel
			if fn.Parent < 0 {
				nd.c.parent[j] = P
			} else {
				nd.c.parent[j] = fn.Parent + d0
			}
			nd.c.kind[j] = uint8(fn.Kind)
			nd.c.tag[j] = gTag[fragTag[k]]
			if v := fragVal[k]; v != 0 {
				nd.c.val[j] = gVal[v-1] + 1
			}
		}
	}

	// Positions: the suffix shifts as a block (its parents too, unless the
	// parent is an ancestor before the splice point), and the ancestors of
	// the splice point (P and up) are the only earlier nodes whose
	// intervals move.
	if shift != 0 {
		end, parent := nd.c.end[d0+m:], nd.c.parent[d0+m:]
		for k := range end {
			end[k] += shift
			if parent[k] >= d1 {
				parent[k] += shift
			}
		}
		for a := P; a >= 0; a = nd.c.parent[a] {
			nd.c.end[a] += shift
		}
	}

	// The parent-content invariant: P's element content (the concatenation
	// of its direct text children) must be unchanged, or the interned val
	// column and the value index entries for P would be stale.
	if textConcat(&nd.c, nd.vals, P) != textConcat(&d.c, d.vals, P) {
		return nil, res, fmt.Errorf("%w: parent %d", ErrSpliceContent, P)
	}

	// Incremental index maintenance: merge, never rebuild.
	nd.tagDir, nd.tagPost = spliceIndex(d.tagDir, d.tagPost, d.c.tag, nd.c.tag, 0, d0, d1, m)
	nd.valDir, nd.valPost = spliceIndex(d.valDir, d.valPost, d.c.val, nd.c.val, 1, d0, d1, m)

	// Incremental statistics: delta counts against the old catalog.
	if err := faultinject.Hit(faultinject.PointMutateStatsDelta); err != nil {
		return nil, res, err
	}
	nd.stats, res.StatsDeltas = spliceStats(d, nd, d0, d1, m)
	return nd, res, nil
}

// spliceCol returns old[:d0] ++ m zero entries ++ old[d1:] as two block
// copies; the caller fills the fragment entries.
func spliceCol[T int32 | uint32 | uint8](old []T, d0, d1, m int32) []T {
	out := make([]T, int32(len(old))+m-(d1-d0))
	copy(out, old[:d0])
	copy(out[d0+m:], old[d1:])
	return out
}

// textConcat returns the concatenated direct text children of p.
func textConcat(c *cols, vals *dict, p int32) string {
	var sb strings.Builder
	for ch := p + 1; ch <= c.end[p]; ch = c.end[ch] + 1 {
		if xmltree.Kind(c.kind[ch]) == xmltree.Text {
			sb.WriteString(vals.str(c.val[ch] - 1))
		}
	}
	return sb.String()
}

// spliceIndex produces the postings index of the spliced document from
// the old index and the old and new columns. bias is the column's ID
// offset (1 for the value column, where 0 means "no entry"). For every
// dictionary ID the new list is prefix (old ordinals < d0, unshifted) ++
// fragment ordinals ([d0, d0+m)) ++ suffix (old ordinals >= d1, shifted).
// Only the touched IDs — those of deleted or inserted nodes — are split;
// every other list has no ordinal in [d0, d1) and keeps its length, so a
// run of them that is contiguous in the old postings is one block copy
// with the shift added to its suffix ordinals. Directory entries that end
// up empty are dropped, exactly as a fresh build would never create them.
func spliceIndex(oldDir []dirEntry, oldPost []int32, oldCol, newCol []uint32, bias uint32, d0, d1, m int32) ([]dirEntry, []int32) {
	shift := m - (d1 - d0)
	frag := make(map[uint32][]int32)
	var touched []uint32
	size := 0
	for _, v := range oldCol[d0:d1] {
		if v >= bias {
			touched = append(touched, v-bias)
			size--
		}
	}
	for k := int32(0); k < m; k++ {
		if v := newCol[d0+k]; v >= bias {
			touched = append(touched, v-bias)
			frag[v-bias] = append(frag[v-bias], d0+k)
			size++
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	for _, e := range oldDir {
		size += int(e.n)
	}

	dir := make([]dirEntry, 0, len(oldDir)+len(frag))
	post := make([]int32, 0, size)
	i := 0
	// copyBelow copies the untouched lists with IDs below id, one block
	// per run of lists contiguous in oldPost.
	copyBelow := func(id uint64) {
		for i < len(oldDir) && uint64(oldDir[i].id) < id {
			k := i + 1
			for k < len(oldDir) && uint64(oldDir[k].id) < id && oldDir[k].off == oldDir[k-1].off+oldDir[k-1].n {
				k++
			}
			lo, hi := oldDir[i].off, oldDir[k-1].off+oldDir[k-1].n
			rebase := uint32(len(post)) - lo // modular: off+rebase is the new offset
			n := len(dir)
			dir = append(dir, oldDir[i:k]...)
			for j := range dir[n:] {
				dir[n+j].off += rebase
			}
			post = appendShifted(post, oldPost[lo:hi], d1, shift)
			i = k
		}
	}
	for _, id := range touched {
		copyBelow(uint64(id))
		var refs []int32
		if i < len(oldDir) && oldDir[i].id == id {
			e := oldDir[i]
			refs = oldPost[e.off : e.off+e.n]
			i++
		}
		lo, _ := slices.BinarySearch(refs, d0)
		hi, _ := slices.BinarySearch(refs, d1)
		ins := frag[id]
		total := lo + len(ins) + len(refs) - hi
		if total == 0 {
			continue
		}
		dir = append(dir, dirEntry{id: id, off: uint32(len(post)), n: uint32(total)})
		post = append(post, refs[:lo]...)
		post = append(post, ins...)
		post = appendShifted(post, refs[hi:], d1, shift)
	}
	copyBelow(math.MaxUint32 + 1)
	return dir, post
}

// appendShifted appends block to post, adding shift to every ordinal at or
// past from.
func appendShifted(post, block []int32, from, shift int32) []int32 {
	k := len(post)
	post = slices.Grow(post, len(block))[:k+len(block)]
	out := post[k:]
	for j, r := range block {
		// (from-1-r)>>31 is all ones exactly when r >= from: branch-free,
		// because short postings lists make the branch unpredictable.
		out[j] = r + shift&((from-1-r)>>31)
	}
	return post
}

// spliceStats produces the spliced document's catalog from the old one by
// exact deltas, in time proportional to the splice (times depth), not the
// document:
//
//   - every deleted node subtracts, every inserted node adds, its tag
//     cardinality, its (parentTag, tag) child pair, its parent tag's child
//     total, and one (ancestorTag, tag) pair per distinct ancestor tag;
//   - a (tag, value) pair of a deleted node leaves the tag's distinct-value
//     count when the new version holds no node with that tag and value, and
//     a pair of an inserted node enters it when the old version held none;
//   - inserted levels widen a tag's level bounds; a deleted node on a
//     bound triggers a rescan of that bound over the tag's postings, which
//     stops as soon as it meets the widest value the bound can take.
//
// The second result counts the individual count adjustments applied.
func spliceStats(old, nd *Doc, d0, d1, m int32) (*docStats, int) {
	os := old.stats
	st := &docStats{
		rootTag: os.rootTag,
		nodes:   os.nodes + int(m) - int(d1-d0),
		tags:    maps.Clone(os.tags),
		child:   maps.Clone(os.child),
		desc:    maps.Clone(os.desc),
	}

	type tagVal struct{ tag, val uint32 }
	gone := make(map[tagVal]struct{})  // (tag, value) pairs of deleted nodes
	came := make(map[tagVal]struct{})  // (tag, value) pairs of inserted nodes
	rescan := make(map[uint32][2]bool) // tag -> (MinLevel, MaxLevel) to rescan
	deltas := 0
	addPair := func(pairs map[idPair]int, k idPair, sign int) {
		if v := pairs[k] + sign; v == 0 {
			delete(pairs, k)
		} else {
			pairs[k] = v
		}
		deltas++
	}
	seen := make([]uint32, 0, 16)
	apply := func(c *cols, i int32, sign int) {
		tag, lvl := c.tag[i], c.level[i]
		ts := st.tags[tag]
		if sign < 0 {
			if lvl == ts.MinLevel || lvl == ts.MaxLevel {
				r := rescan[tag]
				r[0] = r[0] || lvl == ts.MinLevel
				r[1] = r[1] || lvl == ts.MaxLevel
				rescan[tag] = r
			}
		} else if ts.Count == 0 {
			ts.MinLevel, ts.MaxLevel = lvl, lvl
		} else {
			ts.MinLevel, ts.MaxLevel = min(ts.MinLevel, lvl), max(ts.MaxLevel, lvl)
		}
		ts.Count += sign
		st.tags[tag] = ts
		deltas++
		if v := c.val[i]; v != 0 {
			if sign < 0 {
				gone[tagVal{tag, v}] = struct{}{}
			} else {
				came[tagVal{tag, v}] = struct{}{}
			}
		}
		p := c.parent[i] // never -1: the root cannot be spliced out
		ptag := c.tag[p]
		addPair(st.child, idPair{ptag, tag}, sign)
		pts := st.tags[ptag]
		pts.Children += sign
		st.tags[ptag] = pts
		deltas++
		seen = seen[:0]
		for a := p; a >= 0; a = c.parent[a] {
			atag := c.tag[a]
			if !slices.Contains(seen, atag) {
				seen = append(seen, atag)
				addPair(st.desc, idPair{atag, tag}, sign)
			}
		}
	}
	for i := d0; i < d1; i++ {
		apply(&old.c, i, -1)
	}
	for k := int32(0); k < m; k++ {
		apply(&nd.c, d0+k, +1)
	}

	for p := range gone {
		if !hasTagValue(nd, p.tag, p.val) {
			ts := st.tags[p.tag]
			ts.Distinct--
			st.tags[p.tag] = ts
		}
	}
	for p := range came {
		if !hasTagValue(old, p.tag, p.val) {
			ts := st.tags[p.tag]
			ts.Distinct++
			st.tags[p.tag] = ts
		}
	}
	for t, r := range rescan {
		ts := st.tags[t]
		if ts.Count == 0 {
			continue
		}
		// The bounds held so far are the widest the new ones can be: no
		// survivor lies outside the old bounds, and inserts widened them.
		lo, hi := ts.MinLevel, ts.MaxLevel
		if r[0] {
			ts.MinLevel = hi
		}
		if r[1] {
			ts.MaxLevel = lo
		}
		for _, ord := range nd.tagRefs(t) {
			l := nd.c.level[ord]
			ts.MinLevel, ts.MaxLevel = min(ts.MinLevel, l), max(ts.MaxLevel, l)
			if ts.MinLevel == lo && ts.MaxLevel == hi {
				break
			}
		}
		st.tags[t] = ts
	}
	for t, ts := range st.tags {
		if ts.Count == 0 {
			delete(st.tags, t)
		} else if ts.MaxLevel > st.depth {
			st.depth = ts.MaxLevel
		}
	}
	return st, deltas
}

// hasTagValue reports whether d holds a node with tag dictionary ID tag
// and value column entry val, scanning the shorter of the two postings
// lists.
func hasTagValue(d *Doc, tag, val uint32) bool {
	tr, vr := d.tagRefs(tag), d.valueRefs(val-1)
	if len(tr) <= len(vr) {
		for _, r := range tr {
			if d.c.val[r] == val {
				return true
			}
		}
		return false
	}
	for _, r := range vr {
		if d.c.tag[r] == tag {
			return true
		}
	}
	return false
}

// Commit publishes nd as the new version of old: the directory entry is
// swapped copy-on-write under the same lock document loads use, after
// verifying old is still the current version (pointer identity — the
// optimistic concurrency check). On conflict the store is unchanged and
// ErrVersionConflict is returned; the caller re-reads and retries or
// surfaces the conflict. Readers that resolved the document before the
// swap — or pinned the directory — keep the old version until they finish;
// its memory is reclaimed by the garbage collector once the last reader
// drops it (VersionsLive watches this via a finalizer).
//
// A commit does not bump the owning shard's load generation: loads and
// mutations invalidate differently (per-shard vs per-document), and the
// plan cache checks document versions for exactly this reason.
func (s *Store) Commit(old, nd *Doc) error {
	return s.CommitLogged(old, nd, nil)
}

// CommitLogged is Commit plus the write-ahead step: when a commit hook is
// installed (SetCommitLog) and payload is non-nil, the hook runs after the
// conflict check and before the directory swap, with the sequence number
// this commit will publish. A hook failure aborts the commit with
// ErrDurability and the store unchanged — an update is never visible to
// readers unless its log record was accepted first.
func (s *Store) CommitLogged(old, nd *Doc, payload []byte) error {
	if s.pinned {
		return fmt.Errorf("store: commit into a pinned (read-only) view")
	}
	if err := faultinject.Hit(faultinject.PointMutateCommit); err != nil {
		return err
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	cur := s.dir.Load()
	if int(old.id) >= len(cur.docs) || cur.docs[old.id] != old {
		return fmt.Errorf("store: document %q: %w", old.name, ErrVersionConflict)
	}
	if fn := s.commitLog.Load(); fn != nil && payload != nil {
		if err := (*fn)(s.updateGen.Load()+1, payload); err != nil {
			return fmt.Errorf("%w: document %q: %w", ErrDurability, old.name, err)
		}
	}
	next := &directory{
		docs:   make([]*Doc, len(cur.docs)),
		byName: cur.byName, // names and IDs are untouched by a commit
	}
	copy(next.docs, cur.docs)
	next.docs[old.id] = nd
	s.dir.Store(next)
	s.updateGen.Add(1)
	s.superseded.Add(1)
	runtime.SetFinalizer(old, func(*Doc) { s.superseded.Add(-1) })
	return nil
}
