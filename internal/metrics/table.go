package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table renders experiment results as aligned text (for terminals and
// goldens) or CSV (for downstream plotting). It deliberately has no
// dependencies beyond fmt so every cmd/ binary can use it.
type Table struct {
	// Title is printed above the table.
	Title string
	// Headers are the column names.
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// trimFloat renders floats with two decimals, dropping a trailing ".00".
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	return strings.TrimSuffix(s, ".00")
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// RenderCSV writes the table as CSV with a header row. Cells containing
// commas or quotes are quoted per RFC 4180.
func (t *Table) RenderCSV(w io.Writer) {
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if strings.ContainsAny(cell, ",\"\n") {
				parts[i] = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintf(w, "%s\n", strings.Join(parts, ","))
	}
	writeRow(t.Headers)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
