package graph

import (
	"fmt"
	"strings"
	"testing"
)

func TestHostOf(t *testing.T) {
	cases := []struct {
		url, want string
	}{
		{"http://www.nytimes.com/2004/index.html", "www.nytimes.com"},
		{"https://cs.stanford.edu/", "cs.stanford.edu"},
		{"www-cs.stanford.edu/people", "www-cs.stanford.edu"},
		{"http://EXAMPLE.com", "example.com"},
		{"http://example.com:8080/a", "example.com"},
		{"http://user@example.com/a", "example.com"},
		{"http://example.com.", "example.com"},
		{"ftp://mirror.example.org/pub", "mirror.example.org"},
		{"host.only", "host.only"},
	}
	for _, c := range cases {
		if got := HostOf(c.url); got != c.want {
			t.Errorf("HostOf(%q) = %q, want %q", c.url, got, c.want)
		}
	}
}

func TestCollapseToHosts(t *testing.T) {
	// Four pages on three hosts. Page graph:
	//   a/1 → a/2 (intra-host, must vanish)
	//   a/1 → b/1, a/2 → b/1 (parallel at host level, must collapse)
	//   b/1 → c/1
	pages := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	urls := []string{
		"http://a.example/1",
		"http://a.example/2",
		"http://b.example/1",
		"http://c.example/1",
	}
	h, err := CollapseToHosts(pages, urls)
	if err != nil {
		t.Fatalf("CollapseToHosts: %v", err)
	}
	if h.Graph.NumNodes() != 3 {
		t.Fatalf("host graph has %d nodes, want 3", h.Graph.NumNodes())
	}
	if h.Graph.NumEdges() != 2 {
		t.Fatalf("host graph has %d edges, want 2 (intra-host dropped, parallels collapsed)", h.Graph.NumEdges())
	}
	a, _ := h.NodeByName("a.example")
	b, _ := h.NodeByName("b.example")
	c, _ := h.NodeByName("c.example")
	if !h.Graph.HasEdge(a, b) || !h.Graph.HasEdge(b, c) {
		t.Errorf("host edges missing: a→b=%v b→c=%v", h.Graph.HasEdge(a, b), h.Graph.HasEdge(b, c))
	}
	if _, ok := h.NodeByName("nosuch.example"); ok {
		t.Error("NodeByName found a nonexistent host")
	}
}

func TestCollapseToHostsErrors(t *testing.T) {
	pages := FromEdges(2, [][2]NodeID{{0, 1}})
	if _, err := CollapseToHosts(pages, []string{"http://a/1"}); err == nil {
		t.Error("mismatched URL count accepted")
	}
	if _, err := CollapseToHosts(pages, []string{"http://a/1", "http:///nohost"}); err == nil {
		t.Error("empty host accepted")
	}
}

func TestNewHostGraph(t *testing.T) {
	g := FromEdges(2, [][2]NodeID{{0, 1}})
	if _, err := NewHostGraph(g, []string{"a"}); err == nil {
		t.Error("mismatched name count accepted")
	}
	if _, err := NewHostGraph(g, []string{"a", "a"}); err == nil {
		t.Error("duplicate names accepted")
	}
	h, err := NewHostGraph(g, []string{"a", "b"})
	if err != nil {
		t.Fatalf("NewHostGraph: %v", err)
	}
	if id, ok := h.NodeByName("b"); !ok || id != 1 {
		t.Errorf("NodeByName(b) = %d,%v, want 1,true", id, ok)
	}
}

// TestNewHostGraphAllocs pins the name index at a fixed handful of
// allocations — the HostGraph and its slot table — however many names
// it holds.
func TestNewHostGraphAllocs(t *testing.T) {
	const n = 100_000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("host%d.example", i)
	}
	g := NewBuilder(n).Build()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewHostGraph(g, names); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewHostGraph over %d names: %.0f allocations", n, allocs)
	if allocs > 4 {
		t.Fatalf("NewHostGraph over %d names made %.0f allocations, ceiling 4", n, allocs)
	}
}

// FuzzHostIndex holds NodeByName to a Go map over an arbitrary name
// list (the input split on '\n'): the same IDs for every name, the
// same misses for strings that are not names, and a duplicate fails
// with the first repeated name.
func FuzzHostIndex(f *testing.F) {
	f.Add("a.com\nb.com\nc.com")
	f.Add("")
	f.Add("\n")
	f.Add("a\nb\na")
	f.Add("x\ny\nz\nw\nv\nu\nt\ns\nr\nq\np\no\nn\nm\nl\nk\nj")
	f.Fuzz(func(t *testing.T, blob string) {
		names := strings.Split(blob, "\n")
		want := make(map[string]NodeID, len(names))
		var wantErr string
		for i, name := range names {
			if _, dup := want[name]; dup {
				wantErr = fmt.Sprintf("graph: duplicate host name %q", name)
				break
			}
			want[name] = NodeID(i)
		}
		h, err := NewHostGraph(NewBuilder(len(names)).Build(), names)
		if wantErr != "" {
			if err == nil || err.Error() != wantErr {
				t.Fatalf("NewHostGraph error = %v, want %q", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewHostGraph: %v", err)
		}
		for name, id := range want {
			if got, ok := h.NodeByName(name); !ok || got != id {
				t.Fatalf("NodeByName(%q) = %d,%v; want %d,true", name, got, ok, id)
			}
			for _, other := range []string{name + "x", "x" + name, strings.ToUpper(name), blob} {
				wantID, wantOK := want[other]
				if got, ok := h.NodeByName(other); ok != wantOK || got != wantID {
					t.Fatalf("NodeByName(%q) = %d,%v; want %d,%v", other, got, ok, wantID, wantOK)
				}
			}
		}
	})
}
