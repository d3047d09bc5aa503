package main

import (
	"fmt"
	"io"
	"strings"
)

// table accumulates rows and renders an aligned text table, the harness's
// stand-in for the paper's plots: every experiment prints the same series
// the corresponding figure draws. Rows keep the raw cell values — the run
// artifact records them as numbers and the benchcheck predicates compare
// them — and are formatted only when rendered.
type table struct {
	Experiment string          `json:"experiment"`
	Sub        string          `json:"sub,omitempty"`
	Columns    []string        `json:"columns"`
	Rows       [][]interface{} `json:"rows"`
}

func newTable(cols ...string) *table { return &table{Columns: cols} }

func (t *table) row(cells ...interface{}) {
	t.Rows = append(t.Rows, append([]interface{}(nil), cells...))
}

// formatted returns the rows as display strings.
func (t *table) formatted() [][]string {
	out := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = make([]string, len(r))
		for j, c := range r {
			if v, ok := c.(float64); ok {
				out[i][j] = fmt.Sprintf("%.2f", v)
			} else {
				out[i][j] = fmt.Sprint(c)
			}
		}
	}
	return out
}

// col returns the index of the named column. Predicates read cells by
// name, so a reordered table cannot shift what they compare; an unknown
// name is a bug in the predicate.
func (t *table) col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("table %s/%s has no column %q", t.Experiment, t.Sub, name))
}

// num reads the named numeric cell of row r.
func (t *table) num(r []interface{}, name string) float64 {
	switch v := r[t.col(name)].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	default:
		panic(fmt.Sprintf("table %s/%s column %q holds %T, not a number", t.Experiment, t.Sub, name, v))
	}
}

// str reads the named cell of row r as text.
func (t *table) str(r []interface{}, name string) string { return fmt.Sprint(r[t.col(name)]) }

func (t *table) render(w io.Writer) {
	rows := t.formatted()
	widths := make([]int, len(t.Columns))
	for i, h := range t.Columns {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
}
