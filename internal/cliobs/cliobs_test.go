package cliobs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"spammass/internal/graph"
)

// writeFile puts content into a fresh file under t's temp dir.
func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadLinesTrims(t *testing.T) {
	got, err := LoadLines(writeFile(t, "  a.com\t\nb.com \r\n\n c.com"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.com", "b.com", "", "c.com"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadLines = %q, want %q", got, want)
	}
}

func TestLoadLinesMissingFile(t *testing.T) {
	if _, err := LoadLines(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("LoadLines of a missing file succeeded")
	}
}

func TestLoadNodeIDs(t *testing.T) {
	got, err := LoadNodeIDs(writeFile(t, "# good core\n 3 \n\n0\n  # indented comment\n\t7\n"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []graph.NodeID{3, 0, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadNodeIDs = %v, want %v", got, want)
	}
}

func TestLoadNodeIDsRejects(t *testing.T) {
	for _, tc := range []struct {
		name, content, want string
	}{
		{"non-numeric", "1\nhost.com\n", `bad node ID "host.com"`},
		{"negative", "-1\n", `bad node ID "-1"`},
		{"id equals n", "0\n8\n", "node 8 outside graph of 8 nodes"},
		{"id above n", "100\n", "node 100 outside graph of 8 nodes"},
		{"empty file", "", "no node IDs in"},
		{"comments only", "# nothing\n\n", "no node IDs in"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadNodeIDs(writeFile(t, tc.content), 8)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadNodeIDs(%q) error = %v, want it to mention %q", tc.content, err, tc.want)
			}
		})
	}
}

// scanLines is the reference LoadLines keeps: the bufio.Scanner loop
// with a 1 MiB buffer it once ran.
func scanLines(data []byte) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		out = append(out, strings.TrimSpace(sc.Text()))
	}
	return out, sc.Err()
}

// checkAgainstScanner fails t unless LoadLines reads content exactly
// as scanLines does: the same lines and the same error.
func checkAgainstScanner(t *testing.T, content []byte) {
	t.Helper()
	got, gotErr := LoadLines(writeFile(t, string(content)))
	want, wantErr := scanLines(content)
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("LoadLines error = %v, bufio.Scanner error = %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("LoadLines read %d lines, bufio.Scanner %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d: LoadLines %q, bufio.Scanner %q", i, got[i], want[i])
		}
	}
}

// TestLoadLinesLongLineBoundary walks a line across the 1 MiB limit,
// with and without a final newline and a CR before it.
func TestLoadLinesLongLineBoundary(t *testing.T) {
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1, maxLine + 2} {
		long := strings.Repeat("x", n)
		for _, content := range []string{
			long,
			long + "\n",
			long + "\r\n",
			"a.com\n" + long + "\nb.com\n",
			"a.com\r\n" + long + "\r\nb.com",
			"\n\n" + long[1:] + " \n",
		} {
			checkAgainstScanner(t, []byte(content))
		}
	}
	if _, err := LoadLines(writeFile(t, strings.Repeat("x", maxLine+1))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line read with error %v, want bufio.ErrTooLong", maxLine+1, err)
	}
}

// TestLoadLinesAllocs pins that reading a name file costs a fixed
// number of allocations, not one or more per line. The collector is off
// while it counts: a cycle that a large read starts can allocate on its
// own account (a finalizer goroutine, say) and add one to the mean.
func TestLoadLinesAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(lines int) float64 {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "host%d.example\n", i)
		}
		path := writeFile(t, b.String())
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadLines(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(100_000)
	t.Logf("LoadLines: %.0f allocations at 10 lines, %.0f at 100,000", small, large)
	if small != large || large > 10 {
		t.Fatalf("LoadLines made %.0f allocations at 10 lines and %.0f at 100,000; want the same count, at most 10", small, large)
	}
}

// FuzzLoadLines holds LoadLines to the bufio.Scanner loop it replaced.
// A non-zero pad expands the input's first '~' into a run of
// maxLine+pad%4 bytes, so the fuzzer also walks the over-long-line
// boundary.
func FuzzLoadLines(f *testing.F) {
	f.Add([]byte("a.com\nb.com\n"), int8(0))
	f.Add([]byte("a.com\r\nb.com\r\n\r\n c.com"), int8(0))
	f.Add([]byte("\n\n\n"), int8(0))
	f.Add([]byte("\r"), int8(0))
	f.Add([]byte("x\r\r\n\t y \n"), int8(0))
	f.Add([]byte(""), int8(0))
	f.Add([]byte("a\n~\nb"), int8(-1))
	f.Add([]byte("a\n~\nb"), int8(1))
	f.Add([]byte("~"), int8(0x70))
	f.Add([]byte("~\r\n"), int8(-3))
	f.Fuzz(func(t *testing.T, data []byte, pad int8) {
		if pad != 0 {
			if i := bytes.IndexByte(data, '~'); i >= 0 {
				long := bytes.Repeat([]byte{'x'}, maxLine+int(pad%4))
				data = append(append(append([]byte(nil), data[:i]...), long...), data[i+1:]...)
			}
		}
		checkAgainstScanner(t, data)
	})
}
