package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Series is one plotted line of a figure: a label, x coordinates, the mean
// over permutations and (when available) the ±1-std band.
type Series struct {
	Name string
	X    []float64
	Mean []float64
	Std  []float64
}

// Constant is a scalar annotation on a figure (ground truth, SCM task count,
// extrapolation mean, ...).
type Constant struct {
	Name  string
	Value float64
}

// Figure is the machine-readable form of one of the paper's plots.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Consts []Constant
	Notes  []string
}

// WriteTable renders the figure as an aligned text table: one row per x
// value, one column per series mean.
func (f *Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, c := range f.Consts {
		if _, err := fmt.Fprintf(w, "#  %-22s %.3f\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "#  %s\n", n); err != nil {
			return err
		}
	}
	if len(f.Series) == 0 {
		return nil
	}
	// Header.
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, f.XLabel)
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, formatRow(cols)); err != nil {
		return err
	}
	// Rows, keyed by the x grid of the first series; series with distinct
	// grids are aligned by index (all drivers emit shared grids).
	nRows := len(f.Series[0].X)
	row := make([]string, len(f.Series)+1)
	for i := 0; i < nRows; i++ {
		row[0] = trimFloat(f.Series[0].X[i])
		for j, s := range f.Series {
			if i < len(s.Mean) {
				row[j+1] = trimFloat(s.Mean[i])
			} else {
				row[j+1] = ""
			}
		}
		if _, err := fmt.Fprintln(w, formatRow(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the figure as CSV with mean and std columns per series.
func (f *Figure) WriteCSV(w io.Writer) error {
	header := []string{"x"}
	for _, s := range f.Series {
		header = append(header, s.Name, s.Name+"_std")
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	nRows := len(f.Series[0].X)
	for i := 0; i < nRows; i++ {
		rec := []string{trimFloat(f.Series[0].X[i])}
		for _, s := range f.Series {
			m, sd := "", ""
			if i < len(s.Mean) {
				m = trimFloat(s.Mean[i])
			}
			if i < len(s.Std) {
				sd = trimFloat(s.Std[i])
			}
			rec = append(rec, m, sd)
		}
		if _, err := fmt.Fprintln(w, strings.Join(rec, ",")); err != nil {
			return err
		}
	}
	return nil
}

func formatRow(cells []string) string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprintf("%12s", c)
	}
	return strings.Join(out, " ")
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}
