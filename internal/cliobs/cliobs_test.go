package cliobs

import (
	"os"
	"path/filepath"
	"reflect"
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
