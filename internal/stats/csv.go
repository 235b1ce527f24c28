package stats

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSV helpers used by the benchmark harness to dump plottable series
// for every figure.

// WriteCSVFileComment writes a CSV to dir/name, which must exist: a
// leading "#" provenance comment (e.g. obs.RunMeta.CommentLine; empty
// means none) before the header, then one line per row with cells as
// fmt's %g formats them. Plotting tools and the repo's readers treat
// "#" lines as comments.
func WriteCSVFileComment(dir, name, comment string, header []string, rows [][]float64) error {
	var b []byte
	if comment != "" {
		if !strings.HasPrefix(comment, "#") {
			b = append(b, "# "...)
		}
		b = append(b, comment...)
		b = append(b, '\n')
	}
	b = append(b, strings.Join(header, ",")...)
	b = append(b, '\n')
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
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
