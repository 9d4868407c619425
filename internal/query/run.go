package query

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// kind classifies a decoded value. The order is the sort order of
// values of different kinds: numbers, then other present values by
// their fmt.Sprint form, then nil and absent values, which tie.
type kind uint8

const (
	kindNum kind = iota
	kindStr
	kindNil // present but nil: sorts as missing, filters as "<nil>"
	kindAbsent
)

// value is one field of one row, decoded once into the form filters
// and sort keys compare.
type value struct {
	s    string // kindStr: the fmt.Sprint form; kindNil: "<nil>"
	f    float64
	kind kind
}

// decode types one record value; ok reports whether the field exists.
// float64, int, int64 and bool are numbers (true is 1).
func decode(v any, ok bool) value {
	if !ok {
		return value{kind: kindAbsent}
	}
	switch x := v.(type) {
	case float64:
		return value{kind: kindNum, f: x}
	case int:
		return value{kind: kindNum, f: float64(x)}
	case int64:
		return value{kind: kindNum, f: float64(x)}
	case bool:
		if x {
			return value{kind: kindNum, f: 1}
		}
		return value{kind: kindNum}
	case string:
		return value{kind: kindStr, s: x}
	case nil:
		return value{kind: kindNil, s: "<nil>"}
	default:
		return value{kind: kindStr, s: fmt.Sprint(x)}
	}
}

// compareKeys orders two sort-key values. Numbers compare like
// cmp.Compare, so NaN sorts before every other number.
func compareKeys(a, b value) int {
	ka, kb := min(a.kind, kindNil), min(b.kind, kindNil)
	switch {
	case ka != kb:
		return cmp.Compare(ka, kb)
	case ka == kindNum:
		return cmp.Compare(a.f, b.f)
	case ka == kindStr:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

// A filter accepts a set of outcomes of comparing a row's value with
// its literal.
const (
	below uint8 = 1 << iota
	equal
	above
	incomparable // a number against a literal that is not one
)

var opAccepts = map[string]uint8{
	"<": below, "<=": below | equal, "=": equal,
	">=": equal | above, ">": above, "!=": below | above | incomparable,
}

// filter is one Filter compiled: its literal parsed once.
type filter struct {
	col     int // index into plan.fields
	accepts uint8
	lit     string
	num     float64
	numOK   bool
}

// match compares numbers numerically when the literal is a number and
// everything else as strings.
func (f *filter) match(v value) bool {
	var c int
	switch v.kind {
	case kindAbsent:
		return false
	case kindNum:
		if !f.numOK {
			return f.accepts&incomparable != 0
		}
		// NaN compares equal to every literal.
		switch {
		case v.f < f.num:
			c = -1
		case v.f > f.num:
			c = 1
		}
	default:
		c = strings.Compare(v.s, f.lit)
	}
	return f.accepts&(below<<(c+1)) != 0
}

type sortCol struct {
	col  int
	desc bool
}

// plan is a query compiled for evaluation: each field it reads is
// resolved to one column, each literal parsed once.
type plan struct {
	fields  []string
	filters []filter
	keys    []sortCol
	limit   int
}

func (q *Query) compile() *plan {
	p := &plan{limit: q.Limit, fields: make([]string, 0, len(q.Filters)+len(q.Sort))}
	col := func(field string) int {
		if i := slices.Index(p.fields, field); i >= 0 {
			return i
		}
		p.fields = append(p.fields, field)
		return len(p.fields) - 1
	}
	p.filters = make([]filter, len(q.Filters))
	for i, f := range q.Filters {
		accepts, ok := opAccepts[f.Op]
		if !ok {
			accepts = below | equal | above | incomparable // an unknown op filters nothing out
		}
		num, err := strconv.ParseFloat(f.Value, 64)
		p.filters[i] = filter{col: col(f.Field), accepts: accepts, lit: f.Value, num: num, numOK: err == nil}
	}
	p.keys = make([]sortCol, len(q.Sort))
	for i, k := range q.Sort {
		p.keys[i] = sortCol{col: col(k.Field), desc: k.Desc}
	}
	return p
}

// Table is a set of rows a query runs over. A table from NewTable
// decodes its columns once per field, on the first query that reads
// the field, and keeps them for later queries; one from Uncached keeps
// nothing. It is safe for concurrent queries; its rows must not change.
type Table struct {
	rows []Record

	mu   sync.Mutex
	cols map[string][]value // nil: uncached
}

// NewTable wraps rows; it decodes nothing until a query reads a field.
func NewTable(rows []Record) *Table { return &Table{rows: rows, cols: map[string][]value{}} }

// Uncached wraps rows that no later query reuses: a query reads only
// the values it needs, straight from the records, and decodes no whole
// column.
func Uncached(rows []Record) *Table { return &Table{rows: rows} }

// Len is the table's row count.
func (t *Table) Len() int { return len(t.rows) }

// columns appends the decoded column of each field to dst, decoding
// the ones no query has read yet; it returns nil for an uncached table.
func (t *Table) columns(dst [][]value, fields []string) [][]value {
	if t.cols == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range fields {
		c, ok := t.cols[f]
		if !ok {
			c = make([]value, len(t.rows))
			for i, r := range t.rows {
				v, has := r[f]
				c[i] = decode(v, has)
			}
			t.cols[f] = c
		}
		dst = append(dst, c)
	}
	return dst
}

// Run evaluates the query over rows: filter, sort, limit. Rows come
// back in the order of their sort keys, ties in input order; with a
// limit only the first N of that order are kept. The input is not
// mutated; the projection is applied by the formatters (Fields only
// selects output columns).
func (q *Query) Run(rows []Record) []Record {
	t := newTopN(q.compile(), len(rows))
	t.scan(rows, nil, 0)
	return t.result()
}

// RunTables is Run over the concatenation of the tables' rows, read
// through their decoded columns where they keep them.
func (q *Query) RunTables(tables []*Table) []Record {
	p := q.compile()
	n := 0
	for _, tb := range tables {
		n += len(tb.rows)
	}
	t := newTopN(p, n)
	cols := make([][]value, 0, len(p.fields))
	pos := 0
	for _, tb := range tables {
		if t.done() {
			break
		}
		t.scan(tb.rows, tb.columns(cols[:0], p.fields), pos)
		pos += len(tb.rows)
	}
	return t.result()
}

// topN collects the rows that pass the filters. Without a limit it
// keeps them all; with limit N it keeps the N smallest by (sort keys,
// input position) in a max-heap, which is exactly what a stable sort
// followed by truncation keeps. Slot s holds one row, its input
// position and its decoded keys keys[s*nk:(s+1)*nk]. Once the heap is
// full, a spare slot takes each new candidate, and the candidate
// swaps places with the heap's worst row only when it ranks before it.
type topN struct {
	p     *plan
	nk    int
	keys  []value
	slots []slot
	heap  []int // kept slots, a max-heap once full
	spare int
}

type slot struct {
	row Record
	pos int
}

// newTopN makes the collector of a query over n rows.
func newTopN(p *plan, n int) topN {
	size := 0 // without a limit, grow with the matches
	if p.limit > 0 {
		size = min(n, p.limit) + 1 // the kept rows and the spare
	}
	return topN{
		p:     p,
		nk:    len(p.keys),
		keys:  make([]value, 0, size*len(p.keys)),
		slots: make([]slot, 0, size),
		heap:  make([]int, 0, size),
	}
}

func (t *topN) full() bool { return t.p.limit > 0 && len(t.heap) == t.p.limit }

// done reports that no later row can enter the result: the heap is
// full and, with no sort keys, a later row always ranks last.
func (t *topN) done() bool { return t.nk == 0 && t.full() }

// scan offers rows[i] at input position base+i. cols holds the decoded
// column of each plan field; nil decodes from the records.
func (t *topN) scan(rows []Record, cols [][]value, base int) {
rows:
	for i, r := range rows {
		if t.done() {
			return
		}
		for fi := range t.p.filters {
			f := &t.p.filters[fi]
			if !f.match(t.p.value(r, cols, f.col, i)) {
				continue rows
			}
		}
		s := t.spare
		if !t.full() {
			s = t.newSlot()
		}
		k := t.keys[s*t.nk : (s+1)*t.nk]
		for ki, key := range t.p.keys {
			k[ki] = t.p.value(r, cols, key.col, i)
		}
		t.slots[s] = slot{row: r, pos: base + i}
		t.offer(s)
	}
}

// value is field col of row i (r), from its decoded column when there
// is one.
func (p *plan) value(r Record, cols [][]value, col, i int) value {
	if cols != nil {
		return cols[col][i]
	}
	v, ok := r[p.fields[col]]
	return decode(v, ok)
}

func (t *topN) newSlot() int {
	t.slots = append(t.slots, slot{})
	t.keys = append(t.keys, make([]value, t.nk)...)
	return len(t.slots) - 1
}

// offer files the candidate in slot s.
func (t *topN) offer(s int) {
	if !t.full() {
		t.heap = append(t.heap, s)
		if t.full() && t.nk > 0 {
			for i := len(t.heap)/2 - 1; i >= 0; i-- {
				t.down(i)
			}
			t.spare = t.newSlot()
		}
		return
	}
	if t.less(s, t.heap[0]) {
		t.heap[0], t.spare = s, t.heap[0]
		t.down(0)
	}
}

// less orders slots by their keys, then by input position.
func (t *topN) less(a, b int) bool {
	ka, kb := t.keys[a*t.nk:(a+1)*t.nk], t.keys[b*t.nk:(b+1)*t.nk]
	for i, key := range t.p.keys {
		c := compareKeys(ka[i], kb[i])
		if c == 0 {
			continue
		}
		if key.desc {
			return c > 0
		}
		return c < 0
	}
	return t.slots[a].pos < t.slots[b].pos
}

// down restores the max-heap below index i.
func (t *topN) down(i int) {
	h := t.heap
	for {
		big := 2*i + 1
		if big >= len(h) {
			return
		}
		if r := big + 1; r < len(h) && t.less(h[big], h[r]) {
			big = r
		}
		if !t.less(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// result returns the kept rows in (keys, position) order.
func (t *topN) result() []Record {
	if t.nk > 0 {
		slices.SortFunc(t.heap, func(a, b int) int {
			if t.less(a, b) {
				return -1
			}
			return 1
		})
	}
	out := make([]Record, len(t.heap))
	for i, s := range t.heap {
		out[i] = t.slots[s].row
	}
	return out
}
