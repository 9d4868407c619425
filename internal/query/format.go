package query

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Formatter renders query output rows in one wire format. The fields
// slice is the projection, in column order; every formatter emits
// exactly those fields for every row (blank/null when absent), so
// output shape is a pure function of the query — pinned by the golden
// shape test.
type Formatter interface {
	// Name is the registry name (the ?format= value).
	Name() string
	// Format writes the rows to w.
	Format(w io.Writer, fields []string, rows []Record) error
}

var formatters = map[string]Formatter{
	"table":  tableFormatter{},
	"ndjson": ndjsonFormatter{},
	"json":   jsonFormatter{},
}

// NewFormatter resolves a format name ("" selects table). The error
// lists the registered names.
func NewFormatter(name string) (Formatter, error) {
	if name == "" {
		name = "table"
	}
	f, ok := formatters[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown format %q (have %s)", name, strings.Join(FormatNames(), ", "))
	}
	return f, nil
}

// FormatNames lists the registered formats, sorted.
func FormatNames() []string {
	out := make([]string, 0, len(formatters))
	for n := range formatters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// appendCell appends one value as a table cell: shortest float form
// (round-trippable), 1/0 for booleans, nothing for absent values.
func appendCell(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return b
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case bool:
		if x {
			return append(b, '1')
		}
		return append(b, '0')
	case string:
		return append(b, x...)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	default:
		return fmt.Append(b, x)
	}
}

// tableFormatter writes an aligned text table with a header row, in
// the spirit of gh-cli's tableprinter output.
type tableFormatter struct{}

func (tableFormatter) Name() string { return "table" }

func (tableFormatter) Format(w io.Writer, fields []string, rows []Record) error {
	width := make([]int, len(fields))
	for i, f := range fields {
		width[i] = len(f)
	}
	// Render every cell once, back to back; ends[r*len(fields)+i] is
	// where row r's cell i ends.
	cells := make([]byte, 0, 8*len(rows)*len(fields))
	ends := make([]int, len(rows)*len(fields))
	for r, row := range rows {
		for i, f := range fields {
			start := len(cells)
			cells = appendCell(cells, row[f])
			ends[r*len(fields)+i] = len(cells)
			width[i] = max(width[i], len(cells)-start)
		}
	}
	line := 1
	for _, n := range width {
		line += n + 2
	}
	out := make([]byte, 0, line*(len(rows)+1))
	// Pad every column but the last, so lines have no trailing
	// whitespace.
	pad := func(i, n int) {
		if i < len(fields)-1 {
			for ; n < width[i]; n++ {
				out = append(out, ' ')
			}
		}
	}
	for i, f := range fields {
		if i > 0 {
			out = append(out, "  "...)
		}
		out = append(out, f...)
		pad(i, len(f))
	}
	out = append(out, '\n')
	start := 0
	for r := range rows {
		for i := range fields {
			if i > 0 {
				out = append(out, "  "...)
			}
			end := ends[r*len(fields)+i]
			out = append(out, cells[start:end]...)
			pad(i, end-start)
			start = end
		}
		out = append(out, '\n')
	}
	_, err := w.Write(out)
	return err
}

// ndjsonFormatter writes one JSON object per row, keys in projection
// order, newline-delimited — the streaming-friendly format.
type ndjsonFormatter struct{}

func (ndjsonFormatter) Name() string { return "ndjson" }

func (ndjsonFormatter) Format(w io.Writer, fields []string, rows []Record) error {
	var b strings.Builder
	for _, row := range rows {
		b.Reset()
		b.WriteByte('{')
		for i, f := range fields {
			if i > 0 {
				b.WriteByte(',')
			}
			k, _ := json.Marshal(f)
			b.Write(k)
			b.WriteByte(':')
			v, err := json.Marshal(row[f])
			if err != nil {
				return err
			}
			b.Write(v)
		}
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonFormatter writes the whole result as one JSON array of objects
// (keys in projection order), for clients that want a single document.
type jsonFormatter struct{}

func (jsonFormatter) Name() string { return "json" }

func (jsonFormatter) Format(w io.Writer, fields []string, rows []Record) error {
	if len(rows) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	nd := ndjsonFormatter{}
	for i, row := range rows {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		var line strings.Builder
		if err := nd.Format(&line, fields, []Record{row}); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "  "+strings.TrimSuffix(line.String(), "\n")); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
