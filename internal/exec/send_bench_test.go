package exec

import (
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/physical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// benchSendSetup builds a store, a sender over an 8-site cluster and a
// block of rows for exercising the hot send path.
func benchSendSetup(b *testing.B, dist physical.Distribution, nrows int) (*storage.Store, *physical.Sender, []types.Row) {
	b.Helper()
	cat := catalog.New()
	if err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "val", Kind: types.KindFloat},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		b.Fatal(err)
	}
	st := storage.NewReplicatedStore(cat, 8, 0)
	tbl, err := cat.Table("t")
	if err != nil {
		b.Fatal(err)
	}
	scan := physical.NewTableScan(tbl, tbl.Fields())
	sender := physical.NewSender(scan, 0, dist)
	rows := make([]types.Row, nrows)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i))}
	}
	return st, sender, rows
}

// BenchmarkSendRowsHash measures the hash-routing send path (the satellite
// pooling/preallocation target): allocations here repeat once per sender
// instance per wave.
func BenchmarkSendRowsHash(b *testing.B) {
	st, sender, rows := benchSendSetup(b, physical.HashDist(0), 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Context{Store: st, Site: 0, Host: 0, NVariants: 1}
		if err := sendRows(sender, rows, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendRowsBroadcast measures the broadcast send path.
func BenchmarkSendRowsBroadcast(b *testing.B) {
	st, sender, rows := benchSendSetup(b, physical.BroadcastDist, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Context{Store: st, Site: 0, Host: 0, NVariants: 1}
		if err := sendRows(sender, rows, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
