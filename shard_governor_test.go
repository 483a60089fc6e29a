package tlc

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"tlc/internal/faultinject"
	"tlc/internal/governor"
)

// shardBudgetFixture loads the same pair of person documents — routed to
// two different shards of the 4-shard database — into a 1-shard and a
// 4-shard database, and returns a cross-document join query over them
// whose matching allocates witness nodes on both shards but returns no
// rows (the ages are disjoint), so arena usage comes from matching, not
// result construction.
func shardBudgetFixture(t *testing.T) (db1, db4 *Database, query string) {
	t.Helper()
	db1 = Open(WithShards(1))
	db4 = Open(WithShards(4))

	var nameA, nameB string
	for i := 0; nameB == ""; i++ {
		name := fmt.Sprintf("budget%d.xml", i)
		if nameA == "" {
			nameA = name
		} else if db4.ShardOfDocument(name) != db4.ShardOfDocument(nameA) {
			nameB = name
		}
		if i > 1<<16 {
			t.Fatal("no shard-distinct names found")
		}
	}

	doc := func(base int) string {
		var b strings.Builder
		b.WriteString("<site>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "<person id=\"p%d\"><name>n%d</name><age>%d</age></person>", i, i, base+i)
		}
		b.WriteString("</site>")
		return b.String()
	}
	for _, load := range []struct {
		name string
		base int
	}{{nameA, 100}, {nameB, 1000}} {
		for _, db := range []*Database{db1, db4} {
			if err := db.LoadXMLString(load.name, doc(load.base)); err != nil {
				t.Fatal(err)
			}
		}
	}
	query = fmt.Sprintf(`FOR $a IN document(%q)//person
	                     FOR $b IN document(%q)//person
	                     WHERE $a/age = $b/age RETURN $a/name`, nameA, nameB)
	return db1, db4, query
}

// TestShardSharedBudget checks the governor budget is query-wide, not
// per-shard: a node budget calibrated to trip on the 1-shard database must
// trip identically on the 4-shard database — serial and parallel — because
// every per-shard arena charges the same governor. An implementation that
// gave each shard worker its own budget would let the 4-shard run spend up
// to shards× the configured limit without tripping.
func TestShardSharedBudget(t *testing.T) {
	// The governed usage of a run is not exactly the node count: each
	// arena charges a whole slab's worth each time its own node count
	// enters a new multiple of the slab size, so every shard arena (plus
	// the main arena) rounds its usage up to a slab. The charge follows
	// node counts, not sync.Pool hits, so GC timing and the race
	// detector's random pool drops do not move it; GC is still pinned off
	// below. Calibration asserts with a 2× margin: the rounding is a few
	// slabs at most, while the bug this test exists to catch (per-shard
	// budgets instead of one shared budget) is a 4× error, so the margin
	// costs no sensitivity.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	db1, db4, query := shardBudgetFixture(t)

	// Calibrate: the smallest power-of-two node budget the query fits in
	// on one shard. Half the largest failing budget must trip on every
	// configuration.
	var budget, tripped int64
	for budget = 64; budget < 1<<30; budget *= 2 {
		_, err := db1.Query(query, WithLimits(Limits{MaxArenaNodes: budget}))
		if err == nil {
			break
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("budget %d: err = %v, want *BudgetError", budget, err)
		}
		tripped = budget
	}
	if tripped < 2 {
		t.Fatal("query fits in 64 arena nodes; fixture too small to calibrate")
	}
	check := tripped / 2

	for _, cfg := range []struct {
		db  *Database
		par int
	}{{db1, 1}, {db1, 4}, {db4, 1}, {db4, 4}} {
		_, err := cfg.db.Query(query, WithLimits(Limits{MaxArenaNodes: check}), WithParallelism(cfg.par))
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Errorf("shards=%d parallelism=%d: err = %v, want *BudgetError",
				cfg.db.NumShards(), cfg.par, err)
			continue
		}
		if be.Resource != governor.ResourceNodes || be.Limit != check {
			t.Errorf("shards=%d parallelism=%d: tripped %s at limit %d, want %s at %d",
				cfg.db.NumShards(), cfg.par, be.Resource, be.Limit, governor.ResourceNodes, check)
		}
	}

	// And a genuinely generous budget fits everywhere: governance is
	// shared, not stricter, at higher shard counts. The headroom is wide
	// because every shard arena (plus the main arena) rounds its charge up
	// to a whole slab, so the 4-shard run's governed usage can be several
	// slabs above the 1-shard calibration.
	if _, err := db4.Query(query, WithLimits(Limits{MaxArenaNodes: 1 << 30}), WithParallelism(4)); err != nil {
		t.Errorf("generous budget on 4 shards: %v", err)
	}
}

// TestShardBudgetChaosAbortsSiblings is the chaos half: with a slow-matcher
// fault keeping all shard workers in flight when the budget trips, the
// over-budget shard must abort its siblings — the query returns one typed
// *BudgetError, promptly and identically on every run, and a concurrent
// in-budget query on the same sharded store is untouched.
func TestShardBudgetChaosAbortsSiblings(t *testing.T) {
	t.Cleanup(faultinject.Disable)
	_, db4, query := shardBudgetFixture(t)

	inBudget, err := db4.Compile(query, WithLimits(Limits{MaxArenaNodes: 1 << 30}), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Enable(faultinject.PointMatcher + "=slow,delay=20ms"); err != nil {
		t.Fatal(err)
	}
	var first *BudgetError
	for run := 0; run < 4; run++ {
		done := make(chan error, 1)
		go func() {
			res, err := db4.Run(inBudget)
			if err == nil && res.Len() != 0 {
				err = fmt.Errorf("disjoint-age join returned %d rows", res.Len())
			}
			done <- err
		}()

		start := time.Now()
		_, err := db4.Query(query, WithLimits(Limits{MaxArenaNodes: 64}), WithParallelism(4))
		elapsed := time.Since(start)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("run %d: err = %v, want *BudgetError", run, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("run %d: abort took %v, want prompt", run, elapsed)
		}
		if first == nil {
			first = be
		} else if be.Resource != first.Resource || be.Limit != first.Limit {
			t.Errorf("run %d: tripped %s at %d, run 0 tripped %s at %d — siblings must fail identically",
				run, be.Resource, be.Limit, first.Resource, first.Limit)
		}
		if err := <-done; err != nil {
			t.Errorf("run %d: concurrent in-budget query: %v", run, err)
		}
	}
}
