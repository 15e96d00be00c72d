package exp

import (
	"fmt"
	"io"
	"strings"
)

// Row is one line of a result table: a label (implementation or
// configuration) plus keyed numeric values. Keeping values keyed lets
// tests assert on them without parsing rendered text.
type Row struct {
	Label  string
	Values map[string]float64
}

// Value returns a keyed value, or 0 when absent.
func (r Row) Value(key string) float64 { return r.Values[key] }

// Table is a rendered experiment: an ordered set of rows and the
// columns to display.
type Table struct {
	ID      string // experiment id, e.g. "fig9"
	Title   string
	Columns []Column
	Rows    []Row
	Notes   []string
}

// Column describes one displayed value.
type Column struct {
	Key    string // key into Row.Values
	Header string
	Format string // fmt verb, e.g. "%.1f"
}

// Row returns the row with the given label, and whether it exists.
func (t Table) Row(label string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// MustValue returns a labeled row's value and panics when missing — for
// harness-internal cross-references (a missing label is a bug).
func (t Table) MustValue(label, key string) float64 {
	r, ok := t.Row(label)
	if !ok {
		panic(fmt.Sprintf("exp: table %s has no row %q", t.ID, label))
	}
	v, ok := r.Values[key]
	if !ok {
		panic(fmt.Sprintf("exp: table %s row %q has no value %q", t.ID, label, key))
	}
	return v
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)

	labelWidth := len("impl")
	for _, r := range t.Rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Columns))
	for ci, c := range t.Columns {
		widths[ci] = len(c.Header)
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(t.Columns))
		for ci, c := range t.Columns {
			s := "-"
			if v, ok := r.Values[c.Key]; ok {
				s = fmt.Sprintf(c.Format, v)
			}
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}

	fmt.Fprintf(&b, "%-*s", labelWidth, "impl")
	for ci, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[ci], c.Header)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelWidth, r.Label)
		for ci := range t.Columns {
			fmt.Fprintf(&b, "  %*s", widths[ci], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown renders the table as a GitHub-flavoured markdown table (for
// EXPERIMENTS.md generation).
func (t Table) Markdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(t.ID), t.Title)
	b.WriteString("| impl |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c.Header)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Label)
		for _, c := range t.Columns {
			if v, ok := r.Values[c.Key]; ok {
				fmt.Fprintf(&b, " "+c.Format+" |", v)
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "> %s\n", n)
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
