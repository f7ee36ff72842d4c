package wire

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"gignite/internal/types"
)

// sameValue compares kind and bits: floats by their IEEE bits, so NaN
// payloads and −0.0 count.
func sameValue(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case types.KindInt, types.KindDate, types.KindBool:
		return a.I == b.I
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case types.KindString:
		return a.S == b.S
	}
	return true
}

func identity(v types.Value) types.Value { return v }

// boxValue boxes a cell the way the driver does, in an interface, but
// behind a pointer: two cells share a box exactly when they hold the same
// pointer.
func boxValue(v types.Value) any { return &v }

func unbox(b any) types.Value { return *b.(*types.Value) }

// streamLayouts records the tag byte of every column of every batch.
type streamLayouts [][]uint8

// roundTrip encodes rows as one result stream of batches of at most
// maxRows rows, decodes every batch, and checks the decoded cells against
// the rows. It then decodes the stream twice more through one boxing
// decoder, the second time into the box tables the first left behind
// (boxStream). It returns each batch's column tags.
func roundTrip(t testing.TB, rows []types.Row, ncols, maxRows int) streamLayouts {
	t.Helper()
	var (
		enc     BatchEncoder
		e       Encoder
		layouts streamLayouts
	)
	enc.Reset(ncols)
	dec, peek := NewBatchDecoder(identity), NewBatchDecoder(identity)
	dec.Reset(ncols)
	peek.Reset(ncols)
	for lo := 0; lo < len(rows) || lo == 0; {
		e.Reset()
		n := enc.Append(&e, rows[lo:], maxRows)
		got, err := dec.Decode(e.Bytes())
		if err != nil {
			t.Fatalf("batch at row %d: %v", lo, err)
		}
		if got != n {
			t.Fatalf("batch at row %d: decoded %d rows, encoded %d", lo, got, n)
		}
		layouts = append(layouts, columnTags(t, peek, e.Bytes()))
		for c, vec := range dec.Columns() {
			for r := 0; r < n; r++ {
				if want := rows[lo+r][c]; !sameValue(vec[r], want) {
					t.Fatalf("row %d col %d: got %#v, want %#v", lo+r, c, vec[r], want)
				}
			}
		}
		if lo += n; n == 0 {
			break
		}
	}
	boxed := NewBatchDecoder(boxValue)
	boxStream(t, boxed, rows, ncols, maxRows)
	boxStream(t, boxed, rows, ncols, maxRows)
	return layouts
}

// columnTags decodes a payload column by column, as Decode does with
// dec, and returns each column's tag byte.
func columnTags(t testing.TB, dec *BatchDecoder[types.Value], payload []byte) []uint8 {
	t.Helper()
	d := Decoder{buf: payload}
	rows, ncols := int(d.U16()), int(d.U16())
	tags := make([]uint8, ncols)
	for c := range tags {
		tags[c] = d.buf[d.off]
		if err := dec.column(&d, c, rows); err != nil {
			t.Fatalf("column %d: %v", c, err)
		}
	}
	return tags
}

func TestColumnBatchRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	rows := []types.Row{
		{types.NewInt(math.MinInt64), types.NewFloat(nan), types.NewString(""), types.NewBool(true), types.DateFromYMD(1969, 12, 31), types.NewInt(1), types.Null},
		{types.Null, types.NewFloat(math.Copysign(0, -1)), types.Null, types.Null, types.Null, types.NewString("one"), types.Null},
		{types.NewInt(math.MaxInt64), types.Null, types.NewString("x"), types.NewBool(false), types.NewDate(-1 << 40), types.NewFloat(1.5), types.Null},
		{types.NewInt(0), types.NewFloat(math.Inf(-1)), types.NewString(""), types.NewBool(true), types.NewDate(0), types.Null, types.Null},
	}
	layouts := roundTrip(t, rows, 7, 256)
	want := []uint8{colPlain | colNulls, colPlain | colNulls, colDict | colNulls, colPlain | colNulls, colPlain | colNulls, colTagged, colPlain | colNulls}
	if fmt.Sprint(layouts[0]) != fmt.Sprint(want) {
		t.Errorf("column tags %v, want %v", layouts[0], want)
	}
	// Batches of one row: every column's layout changes with its kinds.
	roundTrip(t, rows, 7, 1)
	// A result of no rows is one empty batch.
	roundTrip(t, nil, 3, 256)
}

// TestDictionaryCap: a string column is dictionary-encoded until a batch
// would take its stream dictionary past maxDictEntries, and plain for the
// rest of the stream from that batch on; a repeating column beside it
// stays a dictionary and sends each entry once.
func TestDictionaryCap(t *testing.T) {
	rows := make([]types.Row, 5000)
	for i := range rows {
		rows[i] = types.Row{types.NewString(fmt.Sprintf("distinct-%05d", i)), types.NewString(fmt.Sprintf("rep-%d", i%7))}
	}
	// Row 4096 starts the 17th batch of 256: 16 batches fill the dictionary
	// exactly.
	layouts := roundTrip(t, rows, 2, 256)
	for b, tags := range layouts {
		want := colDict
		if b >= 16 {
			want = colPlain
		}
		if tags[0] != want || tags[1] != colDict {
			t.Fatalf("batch %d: tags %#x, want [%#x %#x]", b, tags, want, colDict)
		}
	}
	// The cap is on the stream, not the batch: past it the column stays
	// plain even for a batch whose values repeat.
	rows = append(rows[:4097:4097], types.Row{types.NewString("distinct-00000"), types.NewString("rep-0")})
	layouts = roundTrip(t, rows, 2, 4097)
	if tags := layouts[len(layouts)-1]; tags[0] != colPlain {
		t.Fatalf("after the cap: tags %#x", tags)
	}
	// A new stream starts with empty dictionaries.
	var enc BatchEncoder
	var e Encoder
	for range 2 {
		enc.Reset(2)
		e.Reset()
		enc.Append(&e, rows[:3], 256)
		dec := NewBatchDecoder(identity)
		dec.Reset(2)
		if tags := columnTags(t, dec, e.Bytes()); tags[0] != colDict {
			t.Fatalf("second stream: tags %#x", tags)
		}
	}
}

// boxStream decodes rows as one stream of ncols columns in batches of at
// most maxRows rows through dec, checks every cell against the rows by
// kind and bits, and returns the boxes row by row.
func boxStream(t testing.TB, dec *BatchDecoder[any], rows []types.Row, ncols, maxRows int) [][]any {
	t.Helper()
	var (
		enc BatchEncoder
		e   Encoder
		out [][]any
	)
	enc.Reset(ncols)
	dec.Reset(ncols)
	for lo := 0; lo < len(rows); {
		e.Reset()
		n := enc.Append(&e, rows[lo:], maxRows)
		if _, err := dec.Decode(e.Bytes()); err != nil {
			t.Fatalf("batch at row %d: %v", lo, err)
		}
		for r := range n {
			row := make([]any, ncols)
			for c, vec := range dec.Columns() {
				if got, want := unbox(vec[r]), rows[lo+r][c]; !sameValue(got, want) {
					t.Fatalf("row %d col %d: got %#v, want %#v", lo+r, c, got, want)
				}
				row[c] = vec[r]
			}
			out = append(out, row)
		}
		lo += n
	}
	return out
}

// TestBoxTables: plain int, date and float cells decode through their
// column's box table to what boxing each cell gives, kind and bits; a
// stream boxes each distinct (kind, payload) of a column once while the
// column fits its slots, and never hands out a box of another kind or of
// an earlier stream.
func TestBoxTables(t *testing.T) {
	calls := 0
	dec := NewBatchDecoder(func(v types.Value) any { calls++; return &v })
	nan1, nan2 := math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)

	// Edge values, NULLs, and payloads congruent modulo every table size
	// the columns pass through (batches of 8 rows grow them 8 → 64 slots,
	// then the stream goes on past maxBoxSlots cells).
	var rows []types.Row
	for i := range 3000 {
		k := int64(i % 5 * maxBoxSlots)
		row := types.Row{types.NewInt(k + 5), types.NewDate(k - 3), types.NewFloat(math.Float64frombits(uint64(k) + math.Float64bits(1.5)))}
		switch i % 7 {
		case 1:
			row = types.Row{types.NewInt(math.MinInt64), types.NewDate(-719_162), types.NewFloat(negZero)}
		case 2:
			row = types.Row{types.NewInt(math.MaxInt64), types.DateFromYMD(1969, 12, 31), types.NewFloat(0)}
		case 3:
			row = types.Row{types.Null, types.Null, types.NewFloat(nan1)}
		case 4:
			row[2] = types.NewFloat(nan2)
		}
		rows = append(rows, row)
	}
	boxes := boxStream(t, dec, rows[:64], 3, 8)
	boxes = append(boxes, boxStream(t, dec, rows, 3, 256)...)
	if boxes[1][2] == boxes[2][2] || boxes[3][2] == boxes[4][2] {
		t.Error("-0.0 and 0, or two NaN payloads, share a box")
	}

	// Every value in [0, 600) of each kind, cyclically over 1,000 rows in
	// batches of 256, into new tables: they grow 256 → 1,024 slots, and no
	// two values of a column ever share a slot.
	rows = rows[:0]
	for i := range 1000 {
		v := int64(i % 600)
		rows = append(rows, types.Row{types.NewInt(1<<40 + v), types.NewDate(8000 + v), types.NewFloat(math.Float64frombits(math.Float64bits(1.5) + uint64(v)))})
	}
	dec.tables = nil
	calls = 0
	boxes = boxStream(t, dec, rows, 3, 256)
	if calls != 3*600 {
		t.Errorf("boxed %d cells for 3 columns of 600 distinct values", calls)
	}
	for r := 600; r < len(rows); r++ {
		for c := range 3 {
			if boxes[r][c] != boxes[r-600][c] {
				t.Fatalf("rows %d and %d of column %d hold one value in two boxes", r-600, r, c)
			}
		}
	}

	// After Reset no box of the earlier stream is handed out, even when the
	// stream stamps wrap.
	if again := boxStream(t, dec, rows[:1], 3, 256); again[0][0] == boxes[0][0] {
		t.Error("a new stream reused a box of the previous one")
	}
	fresh := NewBatchDecoder(boxValue)
	first := boxStream(t, fresh, rows[:2], 3, 256) // two slots, stamped 2
	fresh.stream = math.MaxUint32
	boxStream(t, fresh, rows[1:2], 3, 256) // wraps the stamps to 1; refills slot 1
	if wrapped := boxStream(t, fresh, rows[:1], 3, 256); wrapped[0][0] == first[0][0] {
		t.Error("the stream stamped 2 after the stamps wrapped reused a box")
	}

	// A bitmap's bits past the last row are no row's NULLs.
	var e Encoder
	e.U16(1) // rows
	e.U16(1) // columns
	e.U8(colPlain | colNulls)
	e.U8(uint8(types.KindInt))
	e.U8(0xfe)
	e.I64(1 << 40)
	fresh.tables = nil
	fresh.Reset(1)
	if n, err := fresh.Decode(e.Bytes()); err != nil || n != 1 || unbox(fresh.Columns()[0][0]) != types.NewInt(1<<40) {
		t.Errorf("padding bits in the bitmap: %d rows, %v", n, err)
	}

	// A column that is int in one batch and date in the next, with equal
	// payloads, shares no box between them.
	kinds := boxStream(t, dec, []types.Row{{types.NewInt(7 << 40)}, {types.NewDate(7 << 40)}, {types.NewInt(7 << 40)}}, 1, 1)
	if kinds[0][0] == kinds[1][0] || kinds[1][0] == kinds[2][0] {
		t.Error("an int and a date of one payload share a box")
	}
}

// TestTrimBoundsIdleTables: Trim keeps the first columns' box tables while
// they fit its limit, and a one-row stream afterwards allocates no table.
func TestTrimBoundsIdleTables(t *testing.T) {
	rows := make([]types.Row, 3*maxBoxSlots)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(-i)), types.NewInt(int64(i) << 20)}
	}
	dec := NewBatchDecoder(boxValue)
	boxStream(t, dec, rows, 3, 256)
	table := maxBoxSlots * dec.slot
	dec.Trim(2*table + table/2)
	for c, want := range []int{maxBoxSlots, maxBoxSlots, 0} {
		if got := len(dec.tables[c].slots); got != want {
			t.Errorf("column %d keeps %d slots, want %d", c, got, want)
		}
	}
	var e Encoder
	var enc BatchEncoder
	enc.Reset(1)
	enc.Append(&e, []types.Row{{types.NewInt(1 << 40)}}, 256)
	if bytes := allocated(func() {
		dec.Reset(1)
		if _, err := dec.Decode(e.Bytes()); err != nil {
			t.Error(err)
		}
	}); bytes > 1<<10 {
		t.Errorf("a one-row stream allocated %d bytes", bytes)
	}
}

// TestBatchBudget: a batch of wide rows closes before it could pass
// batchBudget, and a row wider than the budget travels alone.
func TestBatchBudget(t *testing.T) {
	wide := strings.Repeat("w", 70_000)
	rows := make([]types.Row, 10)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(wide + fmt.Sprint(i))}
	}
	var enc BatchEncoder
	var e Encoder
	enc.Reset(2)
	n := enc.Append(&e, rows, 256)
	if n < 2 || len(e.Bytes()) > batchBudget {
		t.Fatalf("took %d rows in %d bytes, budget %d", n, len(e.Bytes()), batchBudget)
	}
	if rest := roundTrip(t, rows, 2, 256); len(rest) != (len(rows)+n-1)/n {
		t.Fatalf("%d batches for %d rows of %d per batch", len(rest), len(rows), n)
	}
	huge := []types.Row{{types.NewInt(0), types.NewString(strings.Repeat("h", 2*batchBudget))}, rows[0]}
	e.Reset()
	enc.Reset(2)
	if n := enc.Append(&e, huge, 256); n != 1 {
		t.Fatalf("a row wider than the budget shared its batch: %d rows", n)
	}
}

// TestMadeUpCountsAllocateLittle: counts read off the wire are checked
// against the payload before they size anything.
func TestMadeUpCountsAllocateLittle(t *testing.T) {
	var e Encoder
	e.U16(math.MaxUint16) // a row of 65,535 values in a 3-byte payload
	e.U8(uint8(types.KindNull))
	if bytes := allocated(func() {
		d := NewDecoder(e.Bytes())
		if d.Row(); d.Err() == nil {
			t.Error("a row count past the payload decoded")
		}
	}); bytes > 64<<10 {
		t.Errorf("Decoder.Row allocated %d bytes for a 3-byte payload", bytes)
	}
	e.Reset()
	e.U16(math.MaxUint16) // 65,535 rows
	e.U16(1)
	e.U8(colPlain | colNulls)
	e.U8(uint8(types.KindNull))
	e.U8(0xff)
	dec := NewBatchDecoder(identity)
	dec.Reset(1)
	if bytes := allocated(func() {
		if _, err := dec.Decode(e.Bytes()); err == nil {
			t.Error("65,535 rows decoded from one bitmap byte")
		}
	}); bytes > 64<<10 {
		t.Errorf("BatchDecoder.Decode allocated %d bytes for a 7-byte payload", bytes)
	}
}

// allocated reports the bytes f allocates: the heap profile records
// every allocation while f runs, and only those made under measured
// count. A process-wide counter such as MemStats.TotalAlloc also counts
// the runtime's own objects: when ReadMemStats restarts the world, the
// runtime may start an OS thread, whose m, g0, gsignal and profiling
// stacks are 5,248 bytes on the heap.
func allocated(f func()) uint64 {
	before := measuredBytes()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	measured(f)
	runtime.MemProfileRate = rate
	// A collection publishes the profile's records so far.
	runtime.GC()
	return measuredBytes() - before
}

// measured calls f: its frame marks f's allocations in the heap profile.
//
//go:noinline
func measured(f func()) { f() }

// measuredBytes sums the published heap profile's bytes allocated under
// measured.
func measuredBytes() uint64 {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var bytes uint64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if fr.Function == "gignite/internal/wire.measured" {
				bytes += uint64(r.AllocBytes)
				break
			}
			if !more {
				break
			}
		}
	}
	return bytes
}

// fuzzStream turns fuzz bytes into a result stream. Byte 0 picks the
// column count (1–6), byte 1 the batch size (1–256), bytes 2–3 the row
// count (0–5,999), then one byte per column its generator: the low three
// bits the values (ints, floats, strings of few distinct values, strings
// distinct per row, bools, dates, mixed kinds, NULLs), the next two how
// often a value is NULL. The remaining bytes, cyclically and mixed with
// their position, pick the values.
func fuzzStream(data []byte) (rows []types.Row, ncols, maxRows int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	ncols, maxRows = 1+at(0)%6, 1+at(1)
	nrows := (at(2)<<8 | at(3)) % 6000
	gens := make([]int, ncols)
	for c := range gens {
		gens[c] = at(4 + c)
	}
	feed := data[min(len(data), 4+ncols):]
	pos := 0
	next := func() uint64 { // 8 feed bytes, mixed with the position (splitmix64)
		v := uint64(pos) * 0x9e3779b97f4a7c15
		for range 8 {
			v = v<<8 | v>>56
			if len(feed) > 0 {
				v ^= uint64(feed[pos%len(feed)])
			}
			pos++
		}
		v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
		v = (v ^ v>>27) * 0x94d049bb133111eb
		return v ^ v>>31
	}
	rows = make([]types.Row, nrows)
	for r := range rows {
		row := make(types.Row, ncols)
		for c, g := range gens {
			v := next()
			if nullEvery := []uint64{0, 7, 2, 1}[g>>3&3]; nullEvery > 0 && v%(nullEvery+1) == 0 {
				continue // NULL
			}
			row[c] = fuzzValue(g&7, v, r)
		}
		rows[r] = row
	}
	return rows, ncols, maxRows
}

func fuzzValue(gen int, v uint64, row int) types.Value {
	switch gen {
	case 0:
		return types.NewInt([]int64{math.MinInt64, math.MaxInt64, 0, int64(v)}[v>>62])
	case 1:
		return types.NewFloat([]float64{math.Float64frombits(v), math.Copysign(0, -1), math.NaN(), math.Inf(1)}[v&3])
	case 2:
		return types.NewString([]string{"", "a", "bb", "ccc"}[v&3])
	case 3:
		return types.NewString(fmt.Sprintf("row-%d", row))
	case 4:
		return types.NewBool(v&1 == 1)
	case 5:
		return types.NewDate(int64(v) >> 20)
	case 6:
		return fuzzValue(int(v%6), v>>3, row)
	}
	return types.Null
}

// fuzzSeeds are FuzzColumnBatch's seeds; TestFuzzSeedsCover checks that
// each covers what its name says.
func fuzzSeeds() map[string][]byte {
	return map[string][]byte{
		// Every kind with some NULLs, 300 rows in batches of 256, fed NaN
		// payloads, MinInt64 and zeros.
		"kinds": []byte("\x05\xff\x01\x2c\x08\x09\x0a\x0c\x0d\x0e" +
			"\x80\x00\x00\x00\x00\x00\x00\x00\x7f\xf8\x00\x00\xde\xad\xbe\xef\x00\x01\x02\x03"),
		// 5,000 distinct strings in batches of 256: the dictionary passes
		// its cap in the 17th batch.
		"dictionary cap": []byte("\x00\xff\x13\x88\x03"),
		// Four-row batches of mixed kinds (a third NULL) beside a NULL column.
		"mixed":   []byte("\x01\x03\x00\x10\x16\x07\x01\x02\x03\x04\x05\x06\x07\x08\x09"),
		"no rows": []byte("\x00\x00\x00\x00\x07"),
	}
}

// TestFuzzSeedsCover: the seeds generate the streams their names promise.
func TestFuzzSeedsCover(t *testing.T) {
	seeds := fuzzSeeds()
	has := func(name string, want func(tags streamLayouts, rows []types.Row) bool) {
		rows, ncols, maxRows := fuzzStream(seeds[name])
		if !want(roundTrip(t, rows, ncols, maxRows), rows) {
			t.Errorf("seed %q does not cover what it says", name)
		}
	}
	has("kinds", func(tags streamLayouts, rows []types.Row) bool {
		nulls, kinds := map[int]bool{}, map[types.Kind]bool{}
		for _, r := range rows {
			for c, v := range r {
				nulls[c] = nulls[c] || v.K == types.KindNull
				kinds[v.K] = true
			}
		}
		return len(nulls) == 6 && len(kinds) == 6 && fmt.Sprint(tags[0]) == fmt.Sprint([]uint8{0x81, 0x81, 0x82, 0x81, 0x81, 0x03})
	})
	has("dictionary cap", func(tags streamLayouts, rows []types.Row) bool {
		return len(tags) == 20 && tags[15][0] == colDict && tags[16][0] == colPlain
	})
	has("mixed", func(tags streamLayouts, rows []types.Row) bool {
		tagged := 0
		for _, b := range tags {
			if b[0] == colTagged {
				tagged++
			}
		}
		return tagged > 0 && len(tags) == 4 && tags[0][1] == colPlain|colNulls
	})
	has("no rows", func(tags streamLayouts, rows []types.Row) bool { return len(rows) == 0 })
}

// FuzzColumnBatch: a stream of batches decodes to the rows it encoded,
// kind and bits, whatever the kinds, NULLs, special floats and dictionary
// growth; and decoding arbitrary bytes never panics and allocates at most
// a constant times their length.
func FuzzColumnBatch(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkArbitraryPayload(t, data)
		rows, ncols, maxRows := fuzzStream(data)
		roundTrip(t, rows, ncols, maxRows)
	})
}

func checkArbitraryPayload(t *testing.T, payload []byte) {
	ncols := 1
	if len(payload) >= 4 {
		ncols = int(payload[2])<<8 | int(payload[3])
	}
	dec := NewBatchDecoder(identity)
	dec.Reset(ncols)
	// Every payload bit may become a 40-byte value; entries and strings
	// cost less.
	if bytes, limit := allocated(func() { _, _ = dec.Decode(payload) }), 512*len(payload)+64<<10; bytes > uint64(limit) {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), bytes, limit)
	}
}
