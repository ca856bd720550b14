package table

import (
	"testing"

	"rodentstore/internal/value"
)

// BenchmarkLoadRender measures the load render: rows converted to one
// batch, the layout's steps run as batch operations, every segment encoded
// from the typed columns. Allocations are per op (one 20k-row load).
func BenchmarkLoadRender(b *testing.B) {
	rows := traceRows(20000)
	for _, expr := range []string{
		"cols(Traces)",
		"delta[lat,lon](project[lat,lon](groupby[id](orderby[t](Traces))))",
		"chunk[64](delta[lat,lon](zorder(grid[lat,lon; 32,32](Traces))))",
	} {
		b.Run(expr, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, _, _ := newEngine(b)
				if err := e.Create("Traces", tracesSchema(), expr); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := e.Load("Traces", rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompactFold measures one level-0 fold of a leveled table: 32
// tails of 256 rows read back as typed batches and rendered into one run
// (the fold perfbench's ingest workload runs every 32 inserts).
func BenchmarkCompactFold(b *testing.B) {
	const tails, per = 32, 256
	batches := make([][]value.Row, tails)
	for i := range batches {
		batches[i] = traceRows(per)
		for j := range batches[i] {
			batches[i][j][0] = value.NewInt(int64(i*per + j))
		}
	}
	b.ReportAllocs()
	b.SetBytes(tails * per * 32)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, _, _ := newEngine(b)
		if err := e.Create("Traces", tracesSchema(), "leveled[4](chunk[256](delta[t](cols(Traces))))"); err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := e.Insert("Traces", batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := e.Compact("Traces"); err != nil {
			b.Fatal(err)
		}
	}
}
