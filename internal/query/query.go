// Package query is the expression language over stored sweep results:
// a small filter/sort/project surface the server exposes at
// /v1/results/query, so a parameter study can be interrogated without
// re-running anything.
//
// An expression is a sequence of whitespace-separated terms:
//
//	max_temp<85 cooling=liquid sort:pump_power limit:10 fields:index,max_temp,pump_power
//
//	field OP value   filter (OP one of < <= > >= = !=); numeric when both
//	                 sides parse as numbers, lexicographic otherwise
//	sort:[-]field    sort key, descending with the - prefix; repeatable,
//	                 later keys break ties of earlier ones, input order
//	                 breaks the rest
//	limit:N          keep at most N rows after sorting
//	fields:a,b,c     project to the named fields, in order
//
// Sort keys order numbers first (NaN before every other number), then
// other values by their fmt.Sprint form, then nil and missing values;
// a descending key reverses that order. A filter on a field a row
// lacks drops the row, and NaN compares equal to every numeric literal.
//
// Parse and String round-trip: String renders the canonical form and
// Parse(String(q)) reproduces q exactly (fuzzed by FuzzQueryExpr).
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Filter is one comparison term.
type Filter struct {
	Field string `json:"field"`
	Op    string `json:"op"`
	Value string `json:"value"`
}

// SortKey is one sort term.
type SortKey struct {
	Field string `json:"field"`
	Desc  bool   `json:"desc,omitempty"`
}

// Query is a parsed expression.
type Query struct {
	Filters []Filter  `json:"filters,omitempty"`
	Sort    []SortKey `json:"sort,omitempty"`
	// Limit caps the result rows; 0 means unlimited.
	Limit int `json:"limit,omitempty"`
	// Fields is the projection, in output order; empty selects the
	// caller's default field set.
	Fields []string `json:"fields,omitempty"`
}

// ops in longest-match-first order, so "<=" wins over "<".
var ops = []string{"<=", ">=", "!=", "<", ">", "="}

func validField(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Parse compiles an expression. Errors name the offending term.
func Parse(expr string) (*Query, error) {
	q := &Query{}
	for _, term := range strings.Fields(expr) {
		switch {
		case strings.HasPrefix(term, "sort:"):
			f := strings.TrimPrefix(term, "sort:")
			desc := strings.HasPrefix(f, "-")
			f = strings.TrimPrefix(f, "-")
			if !validField(f) {
				return nil, fmt.Errorf("query: bad sort field in %q", term)
			}
			q.Sort = append(q.Sort, SortKey{Field: f, Desc: desc})
		case strings.HasPrefix(term, "limit:"):
			n, err := strconv.Atoi(strings.TrimPrefix(term, "limit:"))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("query: bad limit in %q", term)
			}
			if q.Limit != 0 {
				return nil, fmt.Errorf("query: duplicate limit term %q", term)
			}
			q.Limit = n
		case strings.HasPrefix(term, "fields:"):
			if q.Fields != nil {
				return nil, fmt.Errorf("query: duplicate fields term %q", term)
			}
			for _, f := range strings.Split(strings.TrimPrefix(term, "fields:"), ",") {
				if !validField(f) {
					return nil, fmt.Errorf("query: bad field %q in %q", f, term)
				}
				q.Fields = append(q.Fields, f)
			}
			if len(q.Fields) == 0 {
				return nil, fmt.Errorf("query: empty fields term %q", term)
			}
		default:
			flt, err := parseFilter(term)
			if err != nil {
				return nil, err
			}
			q.Filters = append(q.Filters, flt)
		}
	}
	return q, nil
}

func parseFilter(term string) (Filter, error) {
	for _, op := range ops {
		at := strings.Index(term, op)
		if at < 0 {
			continue
		}
		f := Filter{Field: term[:at], Op: op, Value: term[at+len(op):]}
		if !validField(f.Field) {
			return Filter{}, fmt.Errorf("query: bad field in filter %q", term)
		}
		if f.Value == "" || strings.ContainsAny(f.Value, "<>=!") {
			return Filter{}, fmt.Errorf("query: bad value in filter %q", term)
		}
		return f, nil
	}
	return Filter{}, fmt.Errorf("query: unrecognised term %q (want field<op>value, sort:, limit:, fields:)", term)
}

// String renders the canonical form: filters, then sort keys, then
// limit, then fields — each in parse order.
func (q *Query) String() string {
	var terms []string
	for _, f := range q.Filters {
		terms = append(terms, f.Field+f.Op+f.Value)
	}
	for _, s := range q.Sort {
		if s.Desc {
			terms = append(terms, "sort:-"+s.Field)
		} else {
			terms = append(terms, "sort:"+s.Field)
		}
	}
	if q.Limit > 0 {
		terms = append(terms, "limit:"+strconv.Itoa(q.Limit))
	}
	if len(q.Fields) > 0 {
		terms = append(terms, "fields:"+strings.Join(q.Fields, ","))
	}
	return strings.Join(terms, " ")
}
