package wire

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"gignite/internal/types"
)

// A RowBatch payload (DESIGN.md §16) is
//
//	u16 row count, u16 column count, then per column one tag byte
//	(colPlain, colDict or colTagged, plus colNulls when the layout
//	carries a null bitmap) and the column's layout:
//
//	plain   kind u8, [bitmap], the non-null values packed by kind: int and
//	        date i64, float as its IEEE bits, bool u8, string u32 length
//	        and bytes. A column with no non-null value has kind NULL and
//	        always a bitmap.
//	dict    [bitmap], u16 count of the entries this batch adds to the
//	        column's stream dictionary, the entries as strings, then a u16
//	        code per non-null row.
//	tagged  one tagged value per row (Encoder.Value), for a column whose
//	        batch holds more than one non-null kind.
//
// The bitmap has one bit per row, least significant first; a set bit is a
// NULL. Every column therefore spends at least one bit per row, which is
// what lets a decoder bound a batch by its payload before sizing it.
const (
	colPlain  uint8 = 1
	colDict   uint8 = 2
	colTagged uint8 = 3
	colNulls  uint8 = 0x80
)

// maxDictEntries caps a string column's stream dictionary. A string column
// is dictionary-encoded from its stream's first batch until a batch would
// take the dictionary past the cap; from that batch on the column is plain
// for the rest of the stream. Codes fit a u16, and a decoder's
// dictionaries are bounded.
const maxDictEntries = 4096

// batchBudget bounds what a batch may encode to: past its first row a
// batch closes before its rows could pass it, so a result of wide rows
// travels in frames well under DefaultMaxFrame. Only a single row wider
// than a frame cannot be sent.
const batchBudget = 256 << 10

// A BatchEncoder writes one result stream's RowBatch payloads. It keeps
// each string column's stream dictionary between batches; Reset starts
// the next stream.
type BatchEncoder struct {
	cols  []encColumn
	codes []uint16 // scratch: one column's codes in the current batch
	added []string // scratch: the entries one column's batch adds
}

type encColumn struct {
	dict  map[string]uint16 // entry → code; nil before the first entry
	plain bool              // the dictionary would have passed maxDictEntries
}

// Reset starts a stream of ncols columns. The previous stream's
// dictionaries are emptied (they referenced its strings), and kept for
// reuse only while they held at most maxDictEntries entries between them:
// what an idle encoder retains is bounded by a constant, not by the
// largest result it encoded.
func (b *BatchEncoder) Reset(ncols int) {
	kept := 0
	for i := range b.cols {
		c := &b.cols[i]
		if kept += len(c.dict); kept > maxDictEntries {
			c.dict = nil
		} else {
			clear(c.dict)
		}
		c.plain = false
	}
	b.cols = slices.Grow(b.cols[:0], ncols)[:ncols]
}

// Append appends to e the RowBatch payload of the longest prefix of rows
// that holds at most maxRows rows and, past its first row, fits
// batchBudget, and reports how many rows it took. Every row has the
// stream's column count.
func (b *BatchEncoder) Append(e *Encoder, rows []types.Row, maxRows int) int {
	maxRows = min(maxRows, len(rows), 1<<16-1)
	n, size := 0, 4+5*len(b.cols)
	for ; n < maxRows; n++ {
		s := rowBound(rows[n])
		if n > 0 && size+s > batchBudget {
			break
		}
		size += s
	}
	rows = rows[:n]
	e.U16(uint16(n))
	e.U16(uint16(len(b.cols)))
	for c := range b.cols {
		b.column(e, rows, c)
	}
	return n
}

// rowBound bounds what one row adds to a batch in any layout: per cell a
// value or code, a tag, a bitmap bit, and for a string its u32 length and
// bytes (a new dictionary entry carries both and a code).
func rowBound(r types.Row) int {
	n := 10 * len(r)
	for i := range r {
		if r[i].K == types.KindString {
			n += len(r[i].S)
		}
	}
	return n
}

// cellKind is v's kind on the wire: an unknown kind travels as NULL, as
// Encoder.Value sends it; the engine never produces one.
func cellKind(v types.Value) types.Kind {
	if v.K > types.KindDate {
		return types.KindNull
	}
	return v.K
}

func (b *BatchEncoder) column(e *Encoder, rows []types.Row, c int) {
	kind, nulls, mixed := types.KindNull, 0, false
	for _, r := range rows {
		switch k := cellKind(r[c]); {
		case k == types.KindNull:
			nulls++
		case kind == types.KindNull:
			kind = k
		case k != kind:
			mixed = true
		}
	}
	switch {
	case mixed:
		e.U8(colTagged)
		for _, r := range rows {
			e.Value(r[c])
		}
		return
	case kind == types.KindString && !b.cols[c].plain && b.dictionary(e, rows, c, nulls):
		return
	}
	tag := colPlain
	if nulls > 0 || kind == types.KindNull {
		tag |= colNulls
	}
	e.U8(tag)
	e.U8(uint8(kind))
	if tag&colNulls != 0 {
		nullBitmap(e, rows, c)
	}
	for _, r := range rows {
		switch v := r[c]; cellKind(v) {
		case types.KindInt, types.KindDate:
			e.I64(v.I)
		case types.KindFloat:
			e.F64(v.F)
		case types.KindBool:
			if v.I != 0 {
				e.U8(1)
			} else {
				e.U8(0)
			}
		case types.KindString:
			e.Str(v.S)
		}
	}
}

// dictionary encodes string column c as codes into its stream dictionary.
// It reports false, writing nothing, and turns the column plain for the
// rest of the stream when this batch's new entries would take the
// dictionary past maxDictEntries.
func (b *BatchEncoder) dictionary(e *Encoder, rows []types.Row, c, nulls int) bool {
	col := &b.cols[c]
	if col.dict == nil {
		col.dict = make(map[string]uint16)
	}
	codes, added := b.codes[:0], b.added[:0]
	defer func() {
		clear(added) // the scratch must not keep the result's strings
		b.codes, b.added = codes[:0], added[:0]
	}()
	for _, r := range rows {
		if r[c].K != types.KindString {
			continue // NULL: the only other kind in this column
		}
		s := r[c].S
		code, ok := col.dict[s]
		if !ok {
			if len(col.dict) == maxDictEntries {
				col.dict, col.plain = nil, true
				return false
			}
			code = uint16(len(col.dict))
			col.dict[s] = code
			added = append(added, s)
		}
		codes = append(codes, code)
	}
	if nulls > 0 {
		e.U8(colDict | colNulls)
		nullBitmap(e, rows, c)
	} else {
		e.U8(colDict)
	}
	e.U16(uint16(len(added)))
	for _, s := range added {
		e.Str(s)
	}
	for _, code := range codes {
		e.U16(code)
	}
	return true
}

func nullBitmap(e *Encoder, rows []types.Row, c int) {
	var bits uint8
	for i, r := range rows {
		if cellKind(r[c]) == types.KindNull {
			bits |= 1 << (i & 7)
		}
		if i&7 == 7 {
			e.U8(bits)
			bits = 0
		}
	}
	if len(rows)&7 != 0 {
		e.U8(bits)
	}
}

// maxBoxSlots caps a column's box table (see BatchDecoder).
const maxBoxSlots = 2048

// A BatchDecoder reads one result stream's RowBatch payloads into
// per-column vectors of T, the caller's value type; box maps one decoded
// cell onto a T. Two kinds of cell are boxed once per stream and shared by
// every row that carries them: a dictionary entry, and a plain int, date or
// float cell its column's box table still holds.
//
// A box table is direct-mapped: a cell's slot is its 8-byte payload (an
// int or date, a float's IEEE bits) masked to the table's power-of-two
// size, the slot matches only the same kind and payload, and a miss boxes
// the cell and overwrites the slot. A column's table holds the smallest
// power of two at least the cells the column has decoded through it this
// stream, at most maxBoxSlots, so what a peer's bytes make the decoder
// allocate stays proportional to them. Tables outlive Reset; Trim bounds
// what they keep between streams.
//
// Strings are copied out of the payload, so the payload's buffer may be
// reused once Decode returns, and a T the caller keeps stays valid while
// later batches overwrite the vectors.
type BatchDecoder[T any] struct {
	box    func(types.Value) T
	null   T
	vecs   [][]T         // per column: the current batch's values
	dicts  [][]T         // per column: the stream dictionary, boxed
	tables []boxTable[T] // per column position, kept across streams
	stream uint32        // stamps the slots this stream fills; never 0
	slot   int           // bytes of one box slot
}

type boxTable[T any] struct {
	slots []boxSlot[T]
	cells int // cells of this stream decoded through the table
}

type boxSlot[T any] struct {
	stream  uint32 // the stream that filled the slot: any other's is empty
	kind    types.Kind
	payload uint64
	box     T
}

// NewBatchDecoder returns a decoder boxing cells with box.
func NewBatchDecoder[T any](box func(types.Value) T) *BatchDecoder[T] {
	return &BatchDecoder[T]{box: box, null: box(types.Null), stream: 1, slot: int(reflect.TypeFor[boxSlot[T]]().Size())}
}

// Reset starts a stream of ncols columns and drops the previous stream's
// values and dictionaries. The box tables keep their slots, whose
// contents the new stream's stamp makes stale without clearing them, so a
// one-row stream pays nothing for a table an earlier stream grew.
func (d *BatchDecoder[T]) Reset(ncols int) {
	for i := range d.vecs {
		clear(d.vecs[i][:cap(d.vecs[i])])
		d.vecs[i] = d.vecs[i][:0]
	}
	for i := range d.dicts {
		clear(d.dicts[i])
		d.dicts[i] = d.dicts[i][:0]
	}
	d.vecs = slices.Grow(d.vecs[:0], ncols)[:ncols]
	d.dicts = slices.Grow(d.dicts[:0], ncols)[:ncols]
	if d.stream++; d.stream == 0 { // the stamps wrapped: a slot's may recur
		for i := range d.tables {
			clear(d.tables[i].slots)
		}
		d.stream = 1
	}
	for i := range d.tables {
		d.tables[i].cells = 0
	}
	if n := ncols - len(d.tables); n > 0 {
		d.tables = append(d.tables, make([]boxTable[T], n)...)
	}
}

// Trim keeps the box tables, first column first, only while their slots
// total at most limit bytes, and drops the rest: what an idle decoder
// retains is bounded by limit, not by the widest result it decoded.
func (d *BatchDecoder[T]) Trim(limit int) {
	for i := range d.tables {
		t := &d.tables[i]
		if limit -= len(t.slots) * d.slot; limit < 0 {
			t.slots = nil
		}
	}
}

// Columns returns the current batch's values, one vector per column, each
// as long as the row count Decode returned. They are overwritten by the
// next Decode.
func (d *BatchDecoder[T]) Columns() [][]T { return d.vecs }

// Decode reads one RowBatch payload into the column vectors and returns
// its row count. A payload that is malformed, or whose column count is not
// the stream's, is an error.
func (d *BatchDecoder[T]) Decode(payload []byte) (int, error) {
	dec := Decoder{buf: payload}
	rows, ncols := int(dec.U16()), int(dec.U16())
	if dec.err != nil {
		return 0, dec.err
	}
	if ncols != len(d.vecs) {
		return 0, fmt.Errorf("wire: batch of %d columns in a %d-column result", ncols, len(d.vecs))
	}
	if ncols*(1+(rows+7)/8) > dec.Remaining() {
		return 0, fmt.Errorf("wire: %d rows × %d columns cannot fit the remaining %d bytes", rows, ncols, dec.Remaining())
	}
	for c := range d.vecs {
		if err := d.column(&dec, c, rows); err != nil {
			return 0, err
		}
	}
	if dec.Remaining() != 0 {
		return 0, fmt.Errorf("wire: %d bytes after the last column", dec.Remaining())
	}
	return rows, nil
}

func (d *BatchDecoder[T]) column(dec *Decoder, c, rows int) error {
	vec := slices.Grow(d.vecs[c][:0], rows)[:rows]
	d.vecs[c] = vec
	tag := dec.U8()
	layout := tag &^ colNulls
	kind := types.KindNull
	if layout == colPlain {
		kind = types.Kind(dec.U8())
	}
	var nulls []byte
	if tag&colNulls != 0 {
		if layout == colTagged {
			return fmt.Errorf("wire: tagged column with a null bitmap")
		}
		nulls = dec.take((rows + 7) / 8)
	}
	if dec.err != nil {
		return dec.err
	}
	switch layout {
	case colPlain:
		return d.plain(dec, c, kind, vec, nulls)
	case colDict:
		return d.dictionary(dec, c, vec, nulls)
	case colTagged:
		for r := range vec {
			v := dec.Value()
			if dec.err != nil {
				return dec.err
			}
			vec[r] = d.box(v)
		}
		return nil
	default:
		return fmt.Errorf("wire: unknown column layout %#x", tag)
	}
}

func isNull(nulls []byte, r int) bool {
	return nulls != nil && nulls[r>>3]&(1<<(r&7)) != 0
}

func (d *BatchDecoder[T]) plain(dec *Decoder, c int, kind types.Kind, vec []T, nulls []byte) error {
	switch kind {
	case types.KindNull:
		if nulls == nil {
			return fmt.Errorf("wire: NULL column without a null bitmap")
		}
	case types.KindInt, types.KindDate, types.KindFloat:
		return d.fixed(dec, c, kind, vec, nulls)
	}
	for r := range vec {
		if isNull(nulls, r) {
			vec[r] = d.null
			continue
		}
		var v types.Value
		switch kind {
		case types.KindBool:
			v = types.NewBool(dec.U8() != 0)
		case types.KindString:
			v = types.NewString(dec.Str())
		default:
			return fmt.Errorf("wire: non-NULL row in a plain column of kind %d", uint8(kind))
		}
		if dec.err != nil {
			return dec.err
		}
		vec[r] = d.box(v)
	}
	return dec.err
}

// fixed decodes a plain int, date or float column through column c's box
// table.
func (d *BatchDecoder[T]) fixed(dec *Decoder, c int, kind types.Kind, vec []T, nulls []byte) error {
	// A column's cells are the payload's: no more than its bytes can hold.
	// A cell that decodes was among them, so its table has a slot.
	slots := d.table(c, min(nonNull(nulls, len(vec)), dec.Remaining()/8))
	mask := uint64(len(slots) - 1)
	for r := range vec {
		if isNull(nulls, r) {
			vec[r] = d.null
			continue
		}
		payload := dec.U64()
		if dec.err != nil {
			return dec.err
		}
		s := &slots[payload&mask]
		if s.stream != d.stream || s.kind != kind || s.payload != payload {
			*s = boxSlot[T]{stream: d.stream, kind: kind, payload: payload, box: d.box(fixedValue(kind, payload))}
		}
		vec[r] = s.box
	}
	return nil
}

// table returns column c's box slots, grown for n more cells of this
// stream. Growing moves this stream's boxes into the larger table; no two
// land in one slot, since they held distinct slots of the smaller one.
func (d *BatchDecoder[T]) table(c, n int) []boxSlot[T] {
	t := &d.tables[c]
	if t.cells += n; t.cells == 0 {
		return t.slots
	}
	size := min(maxBoxSlots, 1<<bits.Len(uint(t.cells-1)))
	if len(t.slots) >= size {
		return t.slots
	}
	slots := make([]boxSlot[T], size)
	for _, s := range t.slots {
		if s.stream == d.stream {
			slots[s.payload&uint64(size-1)] = s
		}
	}
	t.slots = slots
	return slots
}

func fixedValue(kind types.Kind, payload uint64) types.Value {
	switch kind {
	case types.KindInt:
		return types.NewInt(int64(payload))
	case types.KindDate:
		return types.NewDate(int64(payload))
	}
	return types.NewFloat(math.Float64frombits(payload))
}

// nonNull counts the rows the null bitmap leaves non-NULL.
func nonNull(nulls []byte, rows int) int {
	if nulls == nil {
		return rows
	}
	n := rows
	for i, b := range nulls {
		if i == rows>>3 { // the last byte's bits past the rows
			b &= 1<<(rows&7) - 1
		}
		n -= bits.OnesCount8(b)
	}
	return n
}

func (d *BatchDecoder[T]) dictionary(dec *Decoder, c int, vec []T, nulls []byte) error {
	dict := d.dicts[c]
	n := dec.Count(4) // an entry is at least its length
	if len(dict)+n > maxDictEntries {
		return fmt.Errorf("wire: dictionary of %d entries passes %d", len(dict)+n, maxDictEntries)
	}
	for ; n > 0; n-- {
		s := dec.Str()
		if dec.err != nil {
			return dec.err
		}
		dict = append(dict, d.box(types.NewString(s)))
	}
	d.dicts[c] = dict
	for r := range vec {
		if isNull(nulls, r) {
			vec[r] = d.null
			continue
		}
		code := int(dec.U16())
		if dec.err != nil {
			return dec.err
		}
		if code >= len(dict) {
			return fmt.Errorf("wire: dictionary code %d of %d entries", code, len(dict))
		}
		vec[r] = dict[code]
	}
	return dec.err
}
