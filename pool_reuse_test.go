package rodentstore_test

import (
	"fmt"
	"testing"

	"rodentstore"
)

// TestPoolServesReusedExtentsFresh is the public-API repro of stale buffer
// pool frames: extents freed by Reorganize are reallocated to the next
// round's tails and rewritten through the pager, so the pool must forget
// their pages when they are freed. Before the fix row 512 scanned back as
// [64 "row-64"], a frame cached from the freed extent's earlier content.
func TestPoolServesReusedExtentsFresh(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			db := newDB(t, &rodentstore.Options{CachePages: 1024, DurableInserts: durable})
			fields := []rodentstore.Field{{Name: "k", Type: rodentstore.Int}, {Name: "s", Type: rodentstore.String}}
			if err := db.CreateTable("T", fields, "chunk[64](rows(T))"); err != nil {
				t.Fatal(err)
			}
			next := 0
			for round := 0; round < 4; round++ {
				for b := 0; b < 8; b++ {
					rows := make([]rodentstore.Row, 64)
					for i := range rows {
						rows[i] = rodentstore.Row{rodentstore.IntValue(int64(next)), rodentstore.StringValue(fmt.Sprintf("row-%d", next))}
						next++
					}
					if err := db.Insert("T", rows); err != nil {
						t.Fatal(err)
					}
				}
				// Scan through the pool so the tails' pages are cached, then
				// fold them: Reorganize frees the tail extents.
				checkRows(t, db, next)
				if err := db.Reorganize("T"); err != nil {
					t.Fatal(err)
				}
				checkRows(t, db, next)
			}
		})
	}
}

// checkRows requires T to scan back as rows 0..n-1 in order.
func checkRows(t *testing.T, db *rodentstore.DB, n int) {
	t.Helper()
	cur, err := db.Scan("T", rodentstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("scanned %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) || r[1].Str() != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d scanned back as %v", i, r)
		}
	}
}
