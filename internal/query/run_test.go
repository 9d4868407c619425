package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// serveMixQuery is the results query of perfbench's serve-mix workload.
const serveMixQuery = "max_temp>60 sort:-pump_power limit:10 fields:index,policy,seed,max_temp,pump_power"

// genFields are the fields generated rows draw from; "nope" is in no
// row, so filters and sort keys on it see absent values only.
var genFields = []string{"index", "policy", "seed", "max_temp", "pump_power", "cooling", "nope"}

// absent marks a field a generated row leaves out.
var absent = new(int)

// genValues is the pool generated field values are drawn from: every
// value kind a Record holds, nil, infinities, signed zeros, JSON
// escapes and repeats, so ties are common. It holds no NaN: the first
// evaluation ordered NaN sort keys by its sort algorithm's internals
// (TestRunNaNOrder pins the engine's order instead).
var genValues = []any{
	absent, nil,
	0.0, math.Copysign(0, -1), 0.5, 60.0, 61.25, 83.5, -1.0, 1e-7, 1e21, 123456789.125,
	math.Inf(1), math.Inf(-1),
	0, 1, 60, int64(60), int64(-3), int64(1) << 60,
	true, false,
	"", "a", "b", "LC_FUZZY", "LC_PID", "60", "<nil>", "x\"y", "é", "<b>&", "tab\t",
}

// genLiterals are generated filter literals: numbers, words, and
// numbers strconv.ParseFloat refuses (1e400 is out of range).
var genLiterals = []string{"60", "0", "-1", "0.5", "83.5", "1", "1e400", "+Inf", "-Inf", "NaN",
	"a", "LC_FUZZY", "true", "é", "z"}

// byteGen draws bounded choices from fuzz input; past its end every
// draw is 0.
type byteGen struct{ data []byte }

func (g *byteGen) intn(n int) int {
	if len(g.data) == 0 || n <= 1 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

// genTables draws up to 40 rows split into one to three tables.
func genTables(g *byteGen) []*Table {
	n := g.intn(41)
	rows := make([]Record, n)
	for i := range rows {
		rows[i] = Record{}
		for _, f := range genFields[:len(genFields)-1] {
			if v := genValues[g.intn(len(genValues))]; v != absent {
				rows[i][f] = v
			}
		}
	}
	var tables []*Table
	for parts := 1 + g.intn(3); parts > 1 && len(rows) > 0; parts-- {
		cut := g.intn(len(rows) + 1)
		tables = append(tables, NewTable(rows[:cut]))
		rows = rows[cut:]
	}
	return append(tables, NewTable(rows))
}

// genQuery draws 0–3 filters over every op, 0–3 sort keys in both
// directions, and no limit, 1, fewer than the n rows or more.
func genQuery(g *byteGen, n int) *Query {
	q := &Query{}
	for i := g.intn(4); i > 0; i-- {
		q.Filters = append(q.Filters, Filter{
			Field: genFields[g.intn(len(genFields))],
			Op:    ops[g.intn(len(ops))],
			Value: genLiterals[g.intn(len(genLiterals))],
		})
	}
	for i := g.intn(4); i > 0; i-- {
		q.Sort = append(q.Sort, SortKey{Field: genFields[g.intn(len(genFields))], Desc: g.intn(2) == 1})
	}
	switch g.intn(4) {
	case 1:
		q.Limit = 1
	case 2:
		q.Limit = 1 + g.intn(max(n-1, 1))
	case 3:
		q.Limit = n + 1 + g.intn(3)
	}
	return q
}

func allRows(tables []*Table) []Record {
	var rows []Record
	for _, t := range tables {
		rows = append(rows, t.rows...)
	}
	return rows
}

// sameRows reports whether a and b hold the same records (by identity)
// in the same order.
func sameRows(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.ValueOf(a[i]).Pointer() != reflect.ValueOf(b[i]).Pointer() {
			return false
		}
	}
	return true
}

// checkAgainstOracle runs q through Run, twice through RunTables
// (decoding, then reusing the columns) and through RunTables with every
// other table uncached, as the server mixes ring and durable-only
// sweeps, and requires the oracle's rows and its bytes from every
// formatter.
func checkAgainstOracle(t *testing.T, q *Query, tables []*Table) {
	t.Helper()
	rows := allRows(tables)
	want := oracleRun(q, rows)
	mixed := slices.Clone(tables)
	for i := 1; i < len(mixed); i += 2 {
		mixed[i] = Uncached(mixed[i].rows)
	}
	for name, got := range map[string][]Record{
		"Run":                q.Run(rows),
		"RunTables (decode)": q.RunTables(tables),
		"RunTables (cached)": q.RunTables(tables),
		"RunTables (mixed)":  q.RunTables(mixed),
	} {
		if !sameRows(got, want) {
			t.Fatalf("%s(%q) over %d rows in %d tables:\ngot  %v\nwant %v", name, q, len(rows), len(tables), got, want)
		}
	}
	fields := q.Fields
	if len(fields) == 0 {
		fields = genFields
	}
	for _, name := range FormatNames() {
		f, _ := NewFormatter(name)
		var got, want strings.Builder
		err := f.Format(&got, fields, q.Run(rows))
		werr := oracleFormat(name, &want, fields, oracleRun(q, rows))
		if got.String() != want.String() || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s format of %q:\ngot  %q (err %v)\nwant %q (err %v)", name, q, got.String(), err, want.String(), werr)
		}
	}
}

// FuzzQueryRun checks the engine against the first evaluation
// (oracle_test.go): the same rows in the same order from Run and from
// RunTables over one to three tables, and the same bytes from every
// formatter. A non-empty expr is parsed and run as given; an empty one
// runs a query drawn from data after the rows.
func FuzzQueryRun(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, expr := range []string{serveMixQuery, "", "", "", "policy!=LB sort:-max_temp sort:index limit:3"} {
		data := make([]byte, 200+r.Intn(200))
		r.Read(data)
		f.Add(expr, data)
	}
	f.Fuzz(func(t *testing.T, expr string, data []byte) {
		g := &byteGen{data: data}
		tables := genTables(g)
		q := genQuery(g, len(allRows(tables)))
		if expr != "" {
			var err error
			if q, err = Parse(expr); err != nil {
				return
			}
		}
		checkAgainstOracle(t, q, tables)
	})
}

// TestRunNaNOrder pins how the engine orders NaN sort keys, which the
// first evaluation left to its sort algorithm: like cmp.Compare, NaN
// ranks before every other number, so it comes first ascending and
// last among the numbers descending; NaNs keep their input order. In
// filters NaN compares equal to every numeric literal.
func TestRunNaNOrder(t *testing.T) {
	nan := math.NaN()
	rows := []Record{
		{"id": 0, "v": 1.0},
		{"id": 1, "v": nan},
		{"id": 2, "v": "a"},
		{"id": 3},
		{"id": 4, "v": math.Inf(-1)},
		{"id": 5, "v": nan},
	}
	for _, tc := range []struct {
		expr string
		want []int
	}{
		{"sort:v", []int{1, 5, 4, 0, 2, 3}},
		{"sort:-v", []int{3, 2, 0, 4, 1, 5}},
		{"sort:v limit:3", []int{1, 5, 4}},
		{"sort:-v limit:5", []int{3, 2, 0, 4, 1}},
		{"v=5", []int{1, 5}},
		{"v<=-1000", []int{1, 4, 5}},
		{"v!=1", []int{2, 4}},
	} {
		q, err := Parse(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]Record{q.Run(rows), q.RunTables([]*Table{NewTable(rows[:2]), Uncached(rows[2:])})} {
			var ids []int
			for _, r := range got {
				ids = append(ids, r["id"].(int))
			}
			if !reflect.DeepEqual(ids, tc.want) {
				t.Fatalf("%q: ids %v, want %v", tc.expr, ids, tc.want)
			}
		}
	}
}

// TestTableConcurrentQueries runs different queries over shared tables
// from several goroutines at once, so first decodes of one column race
// with reads of others (run it with -race).
func TestTableConcurrentQueries(t *testing.T) {
	g := &byteGen{data: make([]byte, 400)}
	rand.New(rand.NewSource(2)).Read(g.data)
	tables := genTables(g)
	if len(tables[0].cols) != 0 {
		t.Fatal("NewTable decoded columns before any query")
	}
	tables = append(tables, Uncached(tables[0].rows))
	exprs := []string{
		serveMixQuery,
		"policy!=LB sort:-max_temp sort:index",
		"cooling=a sort:seed limit:2",
		"seed>=0 sort:-policy sort:pump_power limit:5",
	}
	var wg sync.WaitGroup
	for _, expr := range exprs {
		q, err := Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRun(q, allRows(tables))
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := q.RunTables(tables); !sameRows(got, want) {
					t.Errorf("%q: concurrent RunTables differs from the oracle", expr)
				}
			}()
		}
	}
	wg.Wait()
}
