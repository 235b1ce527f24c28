package stats

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// writeCSVFile writes a CSV with WriteCSVFileComment into a fresh
// directory and returns the file's contents.
func writeCSVFile(t *testing.T, comment string, header []string, rows [][]float64) string {
	t.Helper()
	dir := t.TempDir()
	if err := WriteCSVFileComment(dir, "out.csv", comment, header, rows); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestWriteCSVFormatting(t *testing.T) {
	got := writeCSVFile(t, "", []string{"x", "y", "z"}, [][]float64{{1, 2.5, 0.001}, {-3, 1e6, 0}})
	if want := "x,y,z\n1,2.5,0.001\n-3,1e+06,0\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestWriteCSVHeaderOnly(t *testing.T) {
	if got := writeCSVFile(t, "", []string{"a", "b"}, nil); got != "a,b\n" {
		t.Errorf("got %q", got)
	}
}

// TestWriteCSVCellsMatchPercentG: cells are what fmt.Sprintf("%g")
// wrote before rows were formatted with strconv, after the "#" comment.
func TestWriteCSVCellsMatchPercentG(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 0.001, 1e6, 1e20, 1e21, 1e-4, 1e-5, 1e-7,
		8594229649871, 1 << 53, 1<<53 + 1, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	want := "v\n"
	rows := make([][]float64, len(vals))
	for i, v := range vals {
		rows[i] = []float64{v, v}
		want += fmt.Sprintf("%g,%g\n", v, v)
	}
	for _, comment := range []string{"run: x", "# run: x"} {
		if got := writeCSVFile(t, comment, []string{"v"}, rows); got != "# run: x\n"+want {
			t.Errorf("comment %q: got %q, want %q", comment, got, "# run: x\n"+want)
		}
	}
}

func TestWriteCSVFileBadDir(t *testing.T) {
	// A file where the directory should be makes the write fail.
	tmp := t.TempDir()
	blocker := filepath.Join(tmp, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVFileComment(blocker, "x.csv", "", []string{"a"}, nil); err == nil {
		t.Error("expected error when dir path is a file")
	}
}

func TestCDFRowsMonotonic(t *testing.T) {
	s := NewSample(100)
	for v := 1; v <= 100; v++ {
		s.Add(float64(v))
	}
	rows := s.CDFRows(5)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for i, r := range rows {
		if len(r) != 2 {
			t.Fatalf("row %d has %d columns, want 2", i, len(r))
		}
		if r[1] < 0 || r[1] > 1 {
			t.Errorf("row %d fraction %v out of [0,1]", i, r[1])
		}
		if i > 0 && (r[0] < rows[i-1][0] || r[1] < rows[i-1][1]) {
			t.Errorf("row %d not monotonic: %v after %v", i, r, rows[i-1])
		}
	}
	last := rows[len(rows)-1]
	if last[0] != 100 || last[1] != 1 {
		t.Errorf("last row = %v, want [100 1]", last)
	}
}
