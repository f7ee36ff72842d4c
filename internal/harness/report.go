package harness

import (
	"fmt"
	"strings"
)

// Report is a rendered experiment result: one row per query/configuration
// and one column per measured series, mirroring one figure or table of the
// paper.
type Report struct {
	Title   string
	Columns []string
	rows    []reportRow
	Notes   []string
}

type reportRow struct {
	label  string
	values map[string]string
}

// NewReport creates an empty report.
func NewReport(title string, columns ...string) *Report {
	return &Report{Title: title, Columns: columns}
}

// Add appends a row; values align with the report's columns.
func (r *Report) Add(label string, values ...string) {
	m := make(map[string]string, len(values))
	for i, v := range values {
		if i < len(r.Columns) {
			m[r.Columns[i]] = v
		}
	}
	r.rows = append(r.rows, reportRow{label: label, values: m})
}

// Note appends a footnote.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the report as an aligned text table.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s\n", r.Title, strings.Repeat("=", len(r.Title)))
	widths := make([]int, len(r.Columns)+1)
	widths[0] = len("query")
	for _, row := range r.rows {
		if len(row.label) > widths[0] {
			widths[0] = len(row.label)
		}
	}
	for i, c := range r.Columns {
		widths[i+1] = len(c)
		for _, row := range r.rows {
			if v := row.values[c]; len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	sb.WriteString(pad("query", widths[0]))
	for i, c := range r.Columns {
		sb.WriteString("  " + pad(c, widths[i+1]))
	}
	sb.WriteByte('\n')
	for _, row := range r.rows {
		sb.WriteString(pad(row.label, widths[0]))
		for i, c := range r.Columns {
			sb.WriteString("  " + pad(row.values[c], widths[i+1]))
		}
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// fmtSpeedup renders a speedup multiplier.
func fmtSpeedup(v float64) string {
	if v <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", v)
}

// fmtPct renders a relative change as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }
