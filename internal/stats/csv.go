package stats

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSV helpers used by the benchmark harness to dump plottable series
// for every figure.

// WriteCSV writes a header and numeric rows.
func WriteCSV(w io.Writer, header []string, rows [][]float64) error {
	return WriteCSVComment(w, "", header, rows)
}

// WriteCSVComment writes a CSV with a leading "#" provenance comment
// (e.g. obs.RunMeta.CommentLine) before the header; empty means none.
// Plotting tools and the repo's readers treat "#" lines as comments.
func WriteCSVComment(w io.Writer, comment string, header []string, rows [][]float64) error {
	c := NewCSVWriter(w, comment, header)
	for _, row := range rows {
		c.Row(row...)
	}
	return c.Flush()
}

// CSVWriter streams a CSV — comment, header, then numeric rows as they
// are produced — through one 64 KB buffer, so a long table costs a
// write per buffer rather than per row and is never held whole. Cells
// are formatted as fmt's %g formats them.
type CSVWriter struct {
	bw  *bufio.Writer // keeps the first write error for Flush
	row []byte
}

// NewCSVWriter starts a CSV on w with the comment (see WriteCSVComment)
// and the header line.
func NewCSVWriter(w io.Writer, comment string, header []string) *CSVWriter {
	c := &CSVWriter{bw: bufio.NewWriterSize(w, 64<<10)}
	if comment != "" {
		if !strings.HasPrefix(comment, "#") {
			c.bw.WriteString("# ")
		}
		c.bw.WriteString(comment)
		c.bw.WriteByte('\n')
	}
	c.bw.WriteString(strings.Join(header, ","))
	c.bw.WriteByte('\n')
	return c
}

// Row appends one row.
func (c *CSVWriter) Row(vals ...float64) {
	b := c.row[:0]
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	c.row = append(b, '\n')
	c.bw.Write(c.row)
}

// Flush writes out what is buffered and returns the first error any
// write met.
func (c *CSVWriter) Flush() error { return c.bw.Flush() }

// WriteCSVFile writes a CSV to dir/name, creating dir if needed.
func WriteCSVFile(dir, name string, header []string, rows [][]float64) error {
	return WriteCSVFileComment(dir, name, "", header, rows)
}

// WriteCSVFileComment is WriteCSVFile with a provenance comment line.
func WriteCSVFileComment(dir, name, comment string, header []string, rows [][]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteCSVComment(f, comment, header, rows)
}

// CDFRows converts a sample's CDF into CSV rows (value, fraction).
func (s *Sample) CDFRows(points int) [][]float64 {
	cdf := s.CDF(points)
	rows := make([][]float64, len(cdf))
	for i, pt := range cdf {
		rows[i] = []float64{pt.Value, pt.Fraction}
	}
	return rows
}
