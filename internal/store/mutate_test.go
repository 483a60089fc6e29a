package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tlc/internal/faultinject"
	"tlc/internal/xmltree"
)

// checkOracle verifies a spliced document against a rebuild from its own
// serialized XML: a fresh load must produce a semantically identical
// document — same tree, same tag/value indexes, same statistics catalog —
// which the canonical fingerprint captures. The structural self-check
// runs first so a broken column shows up as itself, not as a diff.
func checkOracle(t *testing.T, d *Doc) {
	t.Helper()
	if err := d.validateSplice(); err != nil {
		t.Fatalf("validateSplice: %v", err)
	}
	fresh := New()
	id, err := fresh.LoadXML(d.Name(), strings.NewReader(d.XML(0)))
	if err != nil {
		t.Fatalf("oracle reload: %v", err)
	}
	want := fresh.Doc(id).Fingerprint()
	if got := d.Fingerprint(); got != want {
		t.Fatalf("fingerprint diverges from rebuild-from-XML oracle:\n--- spliced ---\n%s\n--- fresh load ---\n%s", got, want)
	}
}

func ordOf(t *testing.T, s *Store, id DocID, tag string, k int) int32 {
	t.Helper()
	refs := s.Tag(id, tag)
	if k >= len(refs) {
		t.Fatalf("tag %q has %d refs, want index %d", tag, len(refs), k)
	}
	return refs[k]
}

func mustFrag(t *testing.T, xml string) *xmltree.Document {
	t.Helper()
	f, err := ParseFragment(xml)
	if err != nil {
		t.Fatalf("ParseFragment(%q): %v", xml, err)
	}
	return f
}

func TestSpliceInsertAppend(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	frag := mustFrag(t, `<person id="p2"><name>Carol</name><age>41</age></person>`)

	at := d.End(people) + 1
	nd, res, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: frag})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	// person, @id, name, #text, age, #text.
	if res.NodesAdded != 6 || res.NodesRemoved != 0 {
		t.Fatalf("res = %+v, want 6 added, 0 removed", res)
	}
	if res.StatsDeltas == 0 {
		t.Fatalf("no stats deltas recorded")
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if s.Doc(id) != nd {
		t.Fatalf("commit did not publish the new version")
	}
	if nd.Version() != 2 {
		t.Fatalf("version = %d, want 2", nd.Version())
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "person"); len(refs) != 3 {
		t.Fatalf("person count after insert = %d, want 3", len(refs))
	}
	if refs := s.Value(id, "Carol"); len(refs) != 2 {
		t.Fatalf("Value(Carol) = %d refs, want 2 (element + text)", len(refs))
	}
}

func TestSpliceInsertFirst(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	frag := mustFrag(t, `<person id="px"><name>Zed</name></person>`)

	at := d.FirstChild(people)
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: frag})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	// The new person is the first child; Alice shifted but survives.
	if got := nd.Tag(nd.FirstChild(people)); got != "person" {
		t.Fatalf("first child tag = %q", got)
	}
	if refs := s.Value(id, "Alice"); len(refs) != 2 {
		t.Fatalf("Value(Alice) = %d refs after shift, want 2", len(refs))
	}
}

func TestSpliceDelete(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	bob := ordOf(t, s, id, "person", 1)
	people := d.Parent(bob)

	nd, res, err := s.BuildSplice(d, SpliceOp{Parent: people, At: bob, DelEnd: d.End(bob) + 1})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if res.NodesRemoved != int(d.End(bob)+1-bob) || res.NodesAdded != 0 {
		t.Fatalf("res = %+v", res)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "person"); len(refs) != 1 {
		t.Fatalf("person count after delete = %d, want 1", len(refs))
	}
	if refs := s.Value(id, "Bob"); len(refs) != 0 {
		t.Fatalf("Value(Bob) = %d refs after delete, want 0", len(refs))
	}
}

func TestSpliceReplace(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	bidder := ordOf(t, s, id, "bidder", 0)
	auction := d.Parent(bidder)
	frag := mustFrag(t, `<bidder><personref person="p1"/><increase>9</increase></bidder>`)

	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: auction, At: bidder, DelEnd: d.End(bidder) + 1, Frag: frag})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "bidder"); len(refs) != 2 {
		t.Fatalf("bidder count after replace = %d, want 2", len(refs))
	}
	if refs := s.Value(id, "9"); len(refs) != 2 {
		t.Fatalf("Value(9) = %d refs, want 2", len(refs))
	}
	if refs := s.Value(id, "3"); len(refs) != 0 {
		t.Fatalf("Value(3) = %d refs after replace, want 0", len(refs))
	}
}

func TestSpliceDeleteAttribute(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	attr := ordOf(t, s, id, "@id", 0)
	person := d.Parent(attr)

	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: person, At: attr, DelEnd: attr + 1})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	checkOracle(t, nd)
	if refs := s.Tag(id, "@id"); len(refs) != 2 {
		t.Fatalf("@id count = %d, want 2", len(refs))
	}
	// The deleted attribute's value drops out; the personref attribute
	// sharing the string survives.
	if refs := s.Value(id, "p0"); len(refs) != 1 {
		t.Fatalf("Value(p0) = %d refs after attribute delete, want 1", len(refs))
	}
}

func TestSpliceContentInvariant(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	name := ordOf(t, s, id, "name", 0)
	text := d.FirstChild(name)
	if d.Kind(text) != xmltree.Text {
		t.Fatalf("expected text child under name")
	}
	// Deleting the text child would change the parent's concatenated
	// content — the splice layer must refuse.
	_, _, err := s.BuildSplice(d, SpliceOp{Parent: name, At: text, DelEnd: text + 1})
	if !errors.Is(err, ErrSpliceContent) {
		t.Fatalf("err = %v, want ErrSpliceContent", err)
	}
}

func TestSpliceBadOps(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	name := ordOf(t, s, id, "name", 0)
	text := d.FirstChild(name)
	person := ordOf(t, s, id, "person", 0)

	cases := []struct {
		what string
		op   SpliceOp
	}{
		{"text parent", SpliceOp{Parent: text, At: text + 1, DelEnd: text + 1, Frag: mustFrag(t, `<x/>`)}},
		{"not a child boundary", SpliceOp{Parent: people, At: name, DelEnd: name, Frag: mustFrag(t, `<x/>`)}},
		{"splits a subtree", SpliceOp{Parent: people, At: person, DelEnd: person + 2}},
		{"empty splice", SpliceOp{Parent: people, At: person, DelEnd: person}},
		{"range outside parent", SpliceOp{Parent: name, At: d.End(people) + 1, DelEnd: d.End(people) + 1, Frag: mustFrag(t, `<x/>`)}},
	}
	for _, c := range cases {
		if _, _, err := s.BuildSplice(d, c.op); !errors.Is(err, ErrBadSplice) {
			t.Errorf("%s: err = %v, want ErrBadSplice", c.what, err)
		}
	}
}

func TestCommitConflict(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1

	a, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="a"><name>A</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice a: %v", err)
	}
	b, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="b"><name>B</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice b: %v", err)
	}
	if err := s.Commit(d, a); err != nil {
		t.Fatalf("Commit a: %v", err)
	}
	if err := s.Commit(d, b); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("second commit from the same base: err = %v, want ErrVersionConflict", err)
	}
	// The losing commit left the winner in place.
	if s.Doc(id) != a {
		t.Fatalf("conflicting commit disturbed the published version")
	}
	checkOracle(t, s.Doc(id))
}

func TestPinSnapshotIsolation(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	pinned := s.Pin()

	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="p9"><name>New</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// The pinned view still resolves the pre-commit version.
	if got := pinned.Doc(id); got != d || got.Version() != 1 {
		t.Fatalf("pinned view sees version %d, want the pinned version 1", got.Version())
	}
	if refs := pinned.Tag(id, "person"); len(refs) != 2 {
		t.Fatalf("pinned view person count = %d, want pre-commit 2", len(refs))
	}
	if refs := s.Tag(id, "person"); len(refs) != 3 {
		t.Fatalf("live store person count = %d, want 3", len(refs))
	}

	// A pinned view is read-only.
	if _, err := pinned.LoadXML("other.xml", strings.NewReader(`<a/>`)); err == nil {
		t.Fatalf("LoadXML into pinned view succeeded")
	}
	if err := pinned.Commit(d, nd); err == nil {
		t.Fatalf("Commit into pinned view succeeded")
	}
	if err := pinned.LoadSnapshot(t.TempDir()); err == nil {
		t.Fatalf("LoadSnapshot into pinned view succeeded")
	}
}

func TestVersionCounters(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	if v, ok := s.DocVersion("auction.xml"); !ok || v != 1 {
		t.Fatalf("DocVersion = %d, %v; want 1, true", v, ok)
	}
	if g := s.UpdateGeneration(); g != 0 {
		t.Fatalf("UpdateGeneration = %d before any commit", g)
	}

	release := s.BeginMutation()
	if got := s.InFlightWriters(); got != 1 {
		t.Fatalf("InFlightWriters = %d, want 1", got)
	}
	release()
	release() // idempotent
	if got := s.InFlightWriters(); got != 0 {
		t.Fatalf("InFlightWriters = %d after release, want 0", got)
	}

	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<extra/>`)})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if g := s.UpdateGeneration(); g != 1 {
		t.Fatalf("UpdateGeneration = %d, want 1", g)
	}
	if v, ok := s.DocVersion("auction.xml"); !ok || v != 2 {
		t.Fatalf("DocVersion = %d, %v; want 2, true", v, ok)
	}
	vers := s.DocVersions()
	if len(vers) != 1 || vers["auction.xml"] != 2 {
		t.Fatalf("DocVersions = %v", vers)
	}
	// The superseded version is still reachable through d, so it counts as
	// live alongside the current one.
	if got := s.VersionsLive(); got != 2 {
		t.Fatalf("VersionsLive = %d, want 2", got)
	}
	_ = d.Len() // keep the old version reachable until the check above ran
}

func TestLoadSnapshotRejectsInFlightWriters(t *testing.T) {
	s, _ := load(t)
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	s2 := New()
	release := s2.BeginMutation()
	if err := s2.LoadSnapshot(dir); !errors.Is(err, ErrConcurrentMutation) {
		t.Fatalf("LoadSnapshot with writer in flight: err = %v, want ErrConcurrentMutation", err)
	}
	release()
	if err := s2.LoadSnapshot(dir); err != nil {
		t.Fatalf("LoadSnapshot after release: %v", err)
	}
	defer s2.Close()
}

func TestSnapshotVersionRoundTrip(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	nd, _, err := s.BuildSplice(d, SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="s"><name>Snap</name></person>`)})
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if g, err := SnapshotUpdateGen(dir); err != nil || g != 1 {
		t.Fatalf("SnapshotUpdateGen = %d, %v; want 1", g, err)
	}

	s2, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer s2.Close()
	if v, ok := s2.DocVersion("auction.xml"); !ok || v != 2 {
		t.Fatalf("reopened DocVersion = %d, %v; want 2", v, ok)
	}
	if g := s2.UpdateGeneration(); g != 1 {
		t.Fatalf("reopened UpdateGeneration = %d, want 1", g)
	}
	id2, ok := s2.Lookup("auction.xml")
	if !ok {
		t.Fatalf("reopened snapshot lost the document")
	}
	if got, want := s2.Doc(id2).Fingerprint(), s.Doc(id).Fingerprint(); got != want {
		t.Fatalf("snapshot-after-update does not round-trip:\n--- reopened ---\n%s\n--- live ---\n%s", got, want)
	}
}

func TestMutateFaultInjection(t *testing.T) {
	s, id := load(t)
	d := s.Doc(id)
	people := ordOf(t, s, id, "people", 0)
	at := d.End(people) + 1
	op := SpliceOp{Parent: people, At: at, DelEnd: at, Frag: mustFrag(t, `<person id="f"><name>F</name></person>`)}

	if err := faultinject.Enable(faultinject.PointMutateStatsDelta + "=error"); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	_, _, err := s.BuildSplice(d, op)
	faultinject.Disable()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("stats-delta fault: err = %v, want ErrInjected", err)
	}
	if s.Doc(id) != d || s.UpdateGeneration() != 0 {
		t.Fatalf("failed splice left partial state behind")
	}

	nd, _, err := s.BuildSplice(d, op)
	if err != nil {
		t.Fatalf("BuildSplice: %v", err)
	}
	if err := faultinject.Enable(faultinject.PointMutateCommit + "=error"); err != nil {
		t.Fatalf("Enable: %v", err)
	}
	err = s.Commit(d, nd)
	faultinject.Disable()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("commit fault: err = %v, want ErrInjected", err)
	}
	if s.Doc(id) != d || s.UpdateGeneration() != 0 {
		t.Fatalf("failed commit left the store on a new version")
	}

	// The same prepared version commits cleanly once the fault clears.
	if err := s.Commit(d, nd); err != nil {
		t.Fatalf("Commit after fault cleared: %v", err)
	}
	checkOracle(t, s.Doc(id))
}

// TestSpliceDistinctTransitions pins the exact distinct-value delta: a
// (tag, value) pair enters the count only with its first holder and
// leaves it only with its last.
func TestSpliceDistinctTransitions(t *testing.T) {
	s, id := load(t)
	cat := s.Catalog()
	apply := func(op func(d *Doc) SpliceOp) {
		t.Helper()
		d := s.Doc(id)
		nd, _, err := s.BuildSplice(d, op(d))
		if err != nil {
			t.Fatalf("BuildSplice: %v", err)
		}
		if err := s.Commit(d, nd); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		checkOracle(t, nd)
	}
	insertInto := func(tag string, k int, xml string) {
		t.Helper()
		apply(func(d *Doc) SpliceOp {
			p := ordOf(t, s, id, tag, k)
			at := d.End(p) + 1
			return SpliceOp{Parent: p, At: at, DelEnd: at, Frag: mustFrag(t, xml)}
		})
	}
	deleteNode := func(tag string, k int) {
		t.Helper()
		apply(func(d *Doc) SpliceOp {
			c := ordOf(t, s, id, tag, k)
			return SpliceOp{Parent: d.Parent(c), At: c, DelEnd: d.End(c) + 1}
		})
	}
	distinct := func(tag string, want int) {
		t.Helper()
		if got := cat.Tag(id, tag).Distinct; got != want {
			t.Fatalf("Distinct(%s) = %d, want %d", tag, got, want)
		}
	}

	distinct("age", 1) // "30" twice
	insertInto("person", 0, `<age>30</age>`)
	distinct("age", 1) // an existing pair: no entry
	insertInto("person", 1, `<age>31</age>`)
	distinct("age", 2) // a new pair enters
	deleteNode("age", 0)
	distinct("age", 2) // "30" still has holders
	deleteNode("age", 2)
	distinct("age", 1) // the last "31" left
	distinct("name", 2)
	deleteNode("name", 1)
	distinct("name", 1)  // the last "Bob" left
	distinct("#text", 4) // Alice, 30, 3, 5
}

// TestSpliceLevelBoundRescan deletes nodes sitting on their tag's level
// bounds: the bound must be rescanned to the survivors' extremum.
func TestSpliceLevelBoundRescan(t *testing.T) {
	s, id := load(t)
	cat := s.Catalog()
	levels := func(tag string, lo, hi int32) {
		t.Helper()
		if ts := cat.Tag(id, tag); ts.MinLevel != lo || ts.MaxLevel != hi {
			t.Fatalf("%s levels = [%d, %d], want [%d, %d]", tag, ts.MinLevel, ts.MaxLevel, lo, hi)
		}
	}
	commit := func(op SpliceOp) {
		t.Helper()
		d := s.Doc(id)
		nd, _, err := s.BuildSplice(d, op)
		if err != nil {
			t.Fatalf("BuildSplice: %v", err)
		}
		if err := s.Commit(d, nd); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		checkOracle(t, nd)
	}
	levels("#text", 4, 5)

	// A text under the root lowers MinLevel; deleting it must rescan back.
	d := s.Doc(id)
	at := d.End(0) + 1
	commit(SpliceOp{Parent: 0, At: at, DelEnd: at, Frag: mustFrag(t, `<note>x</note>`)})
	levels("#text", 2, 5)
	note := ordOf(t, s, id, "note", 0)
	commit(SpliceOp{Parent: 0, At: note, DelEnd: s.Doc(id).End(note) + 1})
	levels("#text", 4, 5)

	// The open auction holds every level-5 text (the increases): deleting
	// it lowers MaxLevel.
	d = s.Doc(id)
	oa := ordOf(t, s, id, "open_auction", 0)
	commit(SpliceOp{Parent: d.Parent(oa), At: oa, DelEnd: d.End(oa) + 1})
	levels("#text", 4, 4)
}

// TestMutateConcurrentIntern: lock-free readers resolve strings and IDs
// while a writer interns one string at a time, as updates do, across
// several table rehashes. Strings interned before the readers started
// must always resolve to their IDs, and any string a reader finds must
// round-trip through str. Meant to run under -race.
func TestMutateConcurrentIntern(t *testing.T) {
	d := newDict()
	base := make([]string, 100)
	for i := range base {
		base[i] = fmt.Sprintf("base-%d", i)
	}
	baseIDs := d.internAll(base)
	const added = 5000
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				b := base[k%len(base)]
				if id, ok := d.lookup(b); !ok || id != baseIDs[k%len(base)] || d.str(id) != b {
					errs <- fmt.Errorf("reader %d: lookup(%q) = %d, %v", r, b, id, ok)
					return
				}
				n := fmt.Sprintf("new-%d", (k*7+r)%added)
				if id, ok := d.lookup(n); ok && d.str(id) != n {
					errs <- fmt.Errorf("reader %d: lookup(%q) = %d, which is %q", r, n, id, d.str(id))
					return
				}
			}
		}(r)
	}
	for i := 0; i < added; i++ {
		n := fmt.Sprintf("new-%d", i)
		id := d.internAll([]string{n})[0]
		if got, ok := d.lookup(n); !ok || got != id {
			t.Fatalf("lookup(%q) = %d, %v after interning as %d", n, got, ok, id)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := d.size(); got != len(base)+added {
		t.Fatalf("size = %d, want %d", got, len(base)+added)
	}
	// Re-interning is idempotent, duplicates in one batch share an ID.
	ids := d.internAll([]string{"base-0", "new-0", "fresh", "fresh"})
	if ids[0] != baseIDs[0] || ids[1] != uint32(len(base)) || ids[2] != ids[3] || d.size() != len(base)+added+1 {
		t.Fatalf("re-intern = %v, size %d", ids, d.size())
	}
}

// FuzzMutate drives random valid insert/delete/replace sequences against
// the store and checks after every commit that the spliced document is
// byte-for-byte semantically identical (columns, indexes, statistics) to
// a fresh load of its own serialization — the rebuild-from-XML oracle.
func FuzzMutate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 23})
	f.Add([]byte{200, 3, 17, 42, 250, 1, 7, 99, 128, 64, 32, 16, 8, 4, 2, 1})
	// Besides fresh content, the fragments repeat values their tags already
	// hold in sampleXML (name "Alice", age "30"), so inserts and deletes
	// cross both distinct-value transitions (a pair's first and last
	// holder); the nested one moves the #text level bounds both ways.
	fragments := []string{
		`<person id="f0"><name>Fuzz</name></person>`,
		`<extra/>`,
		`<bidder><personref person="p9"/><increase>1</increase></bidder>`,
		`<note lang="en">hi</note>`,
		`<name>Alice</name>`,
		`<age>30</age>`,
		`<x><y><z>deep</z></y></x>`,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		id, err := s.LoadXML("auction.xml", strings.NewReader(sampleXML))
		if err != nil {
			t.Fatalf("LoadXML: %v", err)
		}
		ops := 0
		for i := 0; i+3 < len(data) && ops < 6; i += 4 {
			d := s.Doc(id)
			n := int32(d.Len())
			p := int32(data[i]) % n
			for d.Kind(p) != xmltree.Element {
				p = (p + 1) % n
			}
			// Child boundaries past the attribute run (insert positions) and
			// deletable children (attributes and elements; deleting a text
			// child would change the parent's content).
			var bounds, dels []int32
			for c := d.FirstChild(p); c >= 0 && c <= d.End(p); c = d.End(c) + 1 {
				if d.Kind(c) != xmltree.Attribute {
					bounds = append(bounds, c)
				}
				if d.Kind(c) != xmltree.Text {
					dels = append(dels, c)
				}
			}
			bounds = append(bounds, d.End(p)+1)

			var op SpliceOp
			switch action := data[i+1] % 3; {
			case action == 0: // insert
				at := bounds[int(data[i+2])%len(bounds)]
				op = SpliceOp{Parent: p, At: at, DelEnd: at,
					Frag: mustFrag(t, fragments[int(data[i+3])%len(fragments)])}
			case action == 1 && len(dels) > 0: // delete
				c := dels[int(data[i+2])%len(dels)]
				op = SpliceOp{Parent: p, At: c, DelEnd: d.End(c) + 1}
			case action == 2 && len(dels) > 0: // replace
				c := dels[int(data[i+2])%len(dels)]
				op = SpliceOp{Parent: p, At: c, DelEnd: d.End(c) + 1,
					Frag: mustFrag(t, fragments[int(data[i+3])%len(fragments)])}
			default:
				continue
			}
			nd, _, err := s.BuildSplice(d, op)
			if err != nil {
				t.Fatalf("op %d: BuildSplice(%+v): %v", ops, op, err)
			}
			if err := s.Commit(d, nd); err != nil {
				t.Fatalf("op %d: Commit: %v", ops, err)
			}
			checkOracle(t, nd)
			ops++
		}
	})
}
