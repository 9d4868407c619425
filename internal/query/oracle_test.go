package query

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the first evaluation of a query as the test oracle:
// every row matched against every filter through map lookups and type
// switches, a stable sort of all matches, then truncation, and a table
// formatter that builds one string per cell. The engine (Run, RunTables
// and the append table formatter) must give byte-identical output on
// every input whose sort keys hold no NaN (FuzzQueryRun).

// oracleRun is the first Query.Run: filter, stable sort, limit.
func oracleRun(q *Query, rows []Record) []Record {
	out := make([]Record, 0, len(rows))
	for _, r := range rows {
		if oracleMatch(q, r) {
			out = append(out, r)
		}
	}
	if len(q.Sort) > 0 {
		sort.SliceStable(out, func(a, b int) bool {
			for _, k := range q.Sort {
				c := compareValues(out[a][k.Field], out[b][k.Field])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

func oracleMatch(q *Query, r Record) bool {
	for _, f := range q.Filters {
		v, ok := r[f.Field]
		if !ok {
			return false
		}
		c, comparable := compareWith(v, f.Value)
		switch f.Op {
		case "=":
			if !comparable || c != 0 {
				return false
			}
		case "!=":
			if comparable && c == 0 {
				return false
			}
		case "<":
			if !comparable || c >= 0 {
				return false
			}
		case "<=":
			if !comparable || c > 0 {
				return false
			}
		case ">":
			if !comparable || c <= 0 {
				return false
			}
		case ">=":
			if !comparable || c < 0 {
				return false
			}
		}
	}
	return true
}

// compareWith compares a record value against a filter literal:
// numerically when both sides are numbers, as strings otherwise.
func compareWith(v any, lit string) (int, bool) {
	if n, ok := asNumber(v); ok {
		ln, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return 0, false
		}
		return cmpFloat(n, ln), true
	}
	return strings.Compare(fmt.Sprint(v), lit), true
}

// compareValues orders two record values for sorting: numbers before
// strings, missing values last.
func compareValues(a, b any) int {
	an, aNum := asNumber(a)
	bn, bNum := asNumber(b)
	switch {
	case aNum && bNum:
		return cmpFloat(an, bn)
	case aNum:
		return -1
	case bNum:
		return 1
	case a == nil && b == nil:
		return 0
	case a == nil:
		return 1
	case b == nil:
		return -1
	default:
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func asNumber(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case bool:
		if n {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// cell renders one value for the table format: shortest float form
// (round-trippable), "" for absent values.
func cell(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "1"
		}
		return "0"
	default:
		return fmt.Sprint(x)
	}
}

// oracleFormat formats rows as the named format did before the engine:
// the table through oracleTable, ndjson and json through their
// formatters, which are unchanged.
func oracleFormat(name string, w io.Writer, fields []string, rows []Record) error {
	if name == "table" {
		return oracleTable(w, fields, rows)
	}
	f, err := NewFormatter(name)
	if err != nil {
		return err
	}
	return f.Format(w, fields, rows)
}

func oracleTable(w io.Writer, fields []string, rows []Record) error {
	width := make([]int, len(fields))
	for i, f := range fields {
		width[i] = len(f)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(fields))
		for i, f := range fields {
			c := cell(row[f])
			cells[r][i] = c
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cols)-1 {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(fields)
	for _, row := range cells {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
