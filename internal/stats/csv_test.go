package stats

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteCSVFormatting(t *testing.T) {
	var b strings.Builder
	err := WriteCSVComment(&b, "",
		[]string{"x", "y", "z"},
		[][]float64{{1, 2.5, 0.001}, {-3, 1e6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y,z\n1,2.5,0.001\n-3,1e+06,0\n"
	if b.String() != want {
		t.Errorf("got %q, want %q", b.String(), want)
	}
}

func TestWriteCSVHeaderOnly(t *testing.T) {
	var b strings.Builder
	if err := WriteCSVComment(&b, "", []string{"a", "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a,b\n" {
		t.Errorf("got %q", b.String())
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n--
	if w.n < 0 {
		return 0, os.ErrClosed
	}
	return len(p), nil
}

func TestWriteCSVPropagatesErrors(t *testing.T) {
	// 20,000 rows leave in several buffer-sized writes; fail the first
	// and the second.
	rows := make([][]float64, 20000)
	for i := range rows {
		rows[i] = []float64{float64(i), 0.5}
	}
	for _, okWrites := range []int{0, 1} {
		err := WriteCSVComment(&failWriter{n: okWrites}, "", []string{"a", "b"}, rows)
		if err == nil {
			t.Errorf("okWrites=%d: writer error swallowed", okWrites)
		}
	}
}

// TestWriteCSVCellsMatchPercentG: cells are what fmt.Sprintf("%g")
// wrote before rows were formatted with strconv.
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
	var b strings.Builder
	if err := WriteCSVComment(&b, "run: x", []string{"v"}, rows); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "# run: x\n"+want {
		t.Errorf("got %q, want %q", got, "# run: x\n"+want)
	}
}

type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestCSVWriterBuffersRows: a long table reaches the writer in
// buffer-sized pieces, not a write per row.
func TestCSVWriterBuffersRows(t *testing.T) {
	var w countingWriter
	c := NewCSVWriter(&w, "", []string{"i", "x", "y"})
	for i := 0; i < 40000; i++ {
		c.Row(float64(i), 0.25, 8594229649871)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if max := w.bytes/(64<<10) + 1; w.writes > max {
		t.Errorf("%d writes for %d bytes, want at most %d", w.writes, w.bytes, max)
	}
}

func TestWriteCSVFileNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	err := WriteCSVFileComment(dir, "series.csv", "",
		[]string{"v", "f"}, [][]float64{{10, 0.5}, {20, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != "v,f\n10,0.5\n20,1\n" {
		t.Errorf("file contents %q", got)
	}
}

func TestWriteCSVFileBadDir(t *testing.T) {
	// A file where the directory should be makes MkdirAll fail.
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
