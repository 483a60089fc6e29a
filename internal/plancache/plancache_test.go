package plancache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tlc"
)

const testXML = `<site>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>20</age></person>
  <person id="p2"><name>Carol</name><age>40</age></person>
</site>`

const testQuery = `FOR $p IN document("a.xml")//person WHERE $p/age > 25 RETURN $p/name`

func newDB(t *testing.T) *tlc.Database {
	t.Helper()
	db := tlc.Open()
	if err := db.LoadXMLString("a.xml", testXML); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestHitMiss(t *testing.T) {
	db := newDB(t)
	c := New(4)
	key := Key{Query: testQuery}

	p1, hit, err := c.Load(context.Background(), db, key)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first load reported a hit")
	}
	p2, hit, err := c.Load(context.Background(), db, key)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second load missed")
	}
	if p1 != p2 {
		t.Error("hit returned a different Prepared")
	}
	// The cached plan actually runs.
	res, err := db.Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("got %d results, want 2", res.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

func TestKeyDistinguishesOptions(t *testing.T) {
	db := newDB(t)
	c := New(8)
	ctx := context.Background()
	keys := []Key{
		{Query: testQuery},
		{Query: testQuery, Engine: tlc.TLCOpt},
		{Query: testQuery, Parallelism: 2},
	}
	for _, k := range keys {
		if _, hit, err := c.Load(ctx, db, k); err != nil || hit {
			t.Fatalf("key %+v: hit=%v err=%v, want fresh compile", k, hit, err)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Size != 3 {
		t.Errorf("stats = %+v, want 3 distinct entries", st)
	}
}

func TestEviction(t *testing.T) {
	db := newDB(t)
	c := New(2)
	ctx := context.Background()
	// The queries differ structurally (distinct step names), so containment
	// reuse cannot collapse them into one entry.
	q := func(i int) Key {
		return Key{Query: fmt.Sprintf(`FOR $p IN document("a.xml")//person WHERE $p/tag%d > 1 RETURN $p/name`, i)}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Load(ctx, db, q(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction at size 2", st)
	}
	// q(0) was evicted (LRU); q(2) is still cached.
	if _, hit, _ := c.Load(ctx, db, q(2)); !hit {
		t.Error("most recent entry was evicted")
	}
	if _, hit, _ := c.Load(ctx, db, q(0)); hit {
		t.Error("least recent entry survived eviction")
	}
}

func TestLRUOrderOnHit(t *testing.T) {
	db := newDB(t)
	c := New(2)
	ctx := context.Background()
	q := func(i int) Key {
		return Key{Query: fmt.Sprintf(`FOR $p IN document("a.xml")//person WHERE $p/tag%d > 1 RETURN $p/name`, i)}
	}
	c.Load(ctx, db, q(0))
	c.Load(ctx, db, q(1))
	c.Load(ctx, db, q(0)) // refresh q(0): q(1) becomes LRU
	c.Load(ctx, db, q(2)) // evicts q(1)
	if _, hit, _ := c.Load(ctx, db, q(0)); !hit {
		t.Error("refreshed entry was evicted")
	}
	if _, hit, _ := c.Load(ctx, db, q(1)); hit {
		t.Error("stale entry survived")
	}
}

func TestShardGenerationInvalidation(t *testing.T) {
	db := tlc.Open(tlc.WithShards(4))
	if err := db.LoadXMLString("a.xml", testXML); err != nil {
		t.Fatal(err)
	}
	c := New(4)
	ctx := context.Background()
	key := Key{Query: testQuery}
	if _, _, err := c.Load(ctx, db, key); err != nil {
		t.Fatal(err)
	}

	// Pick one document name routing to a.xml's shard and one routing
	// elsewhere (the routing is a pure name hash, so this is deterministic).
	target := db.ShardOfDocument("a.xml")
	same, other := "", ""
	for i := 0; same == "" || other == ""; i++ {
		name := fmt.Sprintf("doc%d.xml", i)
		if db.ShardOfDocument(name) == target {
			if same == "" {
				same = name
			}
		} else if other == "" {
			other = name
		}
	}

	// A load on a different shard leaves the cached plan valid.
	if err := db.LoadXMLString(other, `<r><x>1</x></r>`); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Load(ctx, db, key); err != nil || !hit {
		t.Fatalf("after unrelated-shard load: hit=%v err=%v, want hit", hit, err)
	}
	if st := c.Stats(); st.Invalidations != 0 {
		t.Errorf("invalidations = %d after unrelated-shard load, want 0", st.Invalidations)
	}

	// A load on the plan's own shard invalidates exactly that entry.
	if err := db.LoadXMLString(same, `<r><x>1</x></r>`); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Load(ctx, db, key); err != nil || hit {
		t.Fatalf("after same-shard load: hit=%v err=%v, want recompile", hit, err)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The recompiled plan is cached at the new shard generations.
	if _, hit, _ := c.Load(ctx, db, key); !hit {
		t.Error("recompiled plan was not cached")
	}
}

func TestFlush(t *testing.T) {
	db := newDB(t)
	c := New(4)
	ctx := context.Background()
	key := Key{Query: testQuery}
	c.Load(ctx, db, key)
	c.Flush()
	if st := c.Stats(); st.Size != 0 || st.Invalidations != 1 {
		t.Errorf("stats after Flush = %+v, want empty with 1 invalidation", st)
	}
	if _, hit, err := c.Load(ctx, db, key); err != nil || hit {
		t.Fatalf("after Flush: hit=%v err=%v, want recompile", hit, err)
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	db := newDB(t)
	c := New(4)
	key := Key{Query: "THIS IS NOT XQUERY ((("}
	for i := 0; i < 2; i++ {
		if _, hit, err := c.Load(context.Background(), db, key); err == nil || hit {
			t.Fatalf("attempt %d: hit=%v err=%v, want compile error miss", i, hit, err)
		}
	}
	if st := c.Stats(); st.Size != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses and nothing cached", st)
	}
}

func TestConcurrentLoad(t *testing.T) {
	db := newDB(t)
	c := New(4)
	key := Key{Query: testQuery}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := c.Load(context.Background(), db, key)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := db.Run(p)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Len() != 2 {
				t.Errorf("got %d results, want 2", res.Len())
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 16 || st.Size != 1 {
		t.Errorf("stats = %+v, want 16 lookups collapsing to one entry", st)
	}
}

// TestSnapshotLoadShardInvalidation: loading a snapshot invalidates only
// the cached plans whose shard footprint the snapshot's documents touch —
// the snapshot path must honor the same per-shard generation contract as
// LoadXML.
func TestSnapshotLoadShardInvalidation(t *testing.T) {
	db := tlc.Open(tlc.WithShards(4))
	if err := db.LoadXMLString("a.xml", testXML); err != nil {
		t.Fatal(err)
	}
	c := New(4)
	ctx := context.Background()
	key := Key{Query: testQuery}
	if _, _, err := c.Load(ctx, db, key); err != nil {
		t.Fatal(err)
	}

	// One document name routing to a.xml's shard, one routing elsewhere
	// (routing is a pure name hash, identical in every 4-shard database).
	target := db.ShardOfDocument("a.xml")
	same, other := "", ""
	for i := 0; same == "" || other == ""; i++ {
		name := fmt.Sprintf("doc%d.xml", i)
		if db.ShardOfDocument(name) == target {
			if same == "" {
				same = name
			}
		} else if other == "" {
			other = name
		}
	}
	snapshotOf := func(name string) string {
		t.Helper()
		src := tlc.Open(tlc.WithShards(4))
		if err := src.LoadXMLString(name, `<r><x>1</x></r>`); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := src.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// A snapshot landing on a different shard leaves the cached plan valid.
	if err := db.LoadSnapshot(snapshotOf(other)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Load(ctx, db, key); err != nil || !hit {
		t.Fatalf("after unrelated-shard snapshot load: hit=%v err=%v, want hit", hit, err)
	}

	// A snapshot landing on the plan's own shard invalidates it.
	if err := db.LoadSnapshot(snapshotOf(same)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Load(ctx, db, key); err != nil || hit {
		t.Fatalf("after same-shard snapshot load: hit=%v err=%v, want recompile", hit, err)
	}
	db.Close()
}

// TestDocumentVersionInvalidation proves per-document invalidation: an
// update to one document drops only the plans referencing it, even when
// another cached plan's document lives on the very same shard.
func TestDocumentVersionInvalidation(t *testing.T) {
	db := tlc.Open(tlc.WithShards(1)) // one shard: everything co-resident
	if err := db.LoadXMLString("a.xml", testXML); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString("b.xml", `<r><x>1</x><x>2</x></r>`); err != nil {
		t.Fatal(err)
	}
	c := New(4)
	ctx := context.Background()
	keyA := Key{Query: testQuery}
	keyB := Key{Query: `FOR $x IN document("b.xml")//x RETURN $x`}
	for _, k := range []Key{keyA, keyB} {
		if _, _, err := c.Load(ctx, db, k); err != nil {
			t.Fatal(err)
		}
	}

	// Update a.xml: Dave (age 50) joins the WHERE age > 25 result set.
	if _, err := db.Update(tlc.UpdateRequest{
		Doc: "a.xml", Op: tlc.UpdateInsert, Target: "/site",
		Fragment: `<person id="p3"><name>Dave</name><age>50</age></person>`,
	}); err != nil {
		t.Fatal(err)
	}

	// The b.xml plan shares the shard but not the document: still cached.
	if _, hit, err := c.Load(ctx, db, keyB); err != nil || !hit {
		t.Fatalf("b.xml plan after a.xml update: hit=%v err=%v, want hit", hit, err)
	}
	// The a.xml plan is stale: its document's version moved.
	p, hit, err := c.Load(ctx, db, keyA)
	if err != nil || hit {
		t.Fatalf("a.xml plan after a.xml update: hit=%v err=%v, want recompile", hit, err)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The recompiled plan sees the new version and is cached at it.
	res, err := db.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("got %d results after update, want 3", res.Len())
	}
	if _, hit, _ := c.Load(ctx, db, keyA); !hit {
		t.Error("recompiled plan was not cached")
	}
}
