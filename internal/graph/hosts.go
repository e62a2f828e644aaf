package graph

import (
	"fmt"
	"strings"
)

// HostOf extracts the host-name part of a URL: everything between the
// scheme prefix (if any) and the first '/', stripped of port and
// lower-cased. This matches the paper's footnote definition of a web
// host ("the part of the URL between the http:// prefix and the first /
// character"); no alias detection is performed, so www-cs.stanford.edu
// and cs.stanford.edu are distinct hosts, exactly as in the paper.
func HostOf(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		// Strip user-info; a legal host contains no '@', so the last
		// one is the boundary.
		s = s[i+1:]
	}
	if i := strings.LastIndexByte(s, ':'); i >= 0 && strings.IndexByte(s[i+1:], ']') < 0 {
		// strip a port, but not the tail of a bare IPv6 literal
		if _, ok := allDigits(s[i+1:]); ok {
			s = s[:i]
		}
	}
	return strings.ToLower(strings.TrimRight(s, "."))
}

func allDigits(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	v := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, false
		}
		v = v*10 + int(r-'0')
	}
	return v, true
}

// HostGraph is a host-level web graph together with the host name of
// each node, produced by collapsing a page-level graph (Section 4.1).
type HostGraph struct {
	Graph *Graph
	// Names[x] is the host name of node x.
	Names []string
	// index maps a host name back to its node ID. It is built once at
	// construction, never exported and never written afterwards, so
	// every holder of the HostGraph — a serving snapshot included —
	// reads it through NodeByName without a copy; a delta builds a new
	// HostGraph with its own index rather than mutating this one.
	index map[string]NodeID
}

// NodeByName returns the node ID for a host name.
func (h *HostGraph) NodeByName(name string) (NodeID, bool) {
	id, ok := h.index[name]
	return id, ok
}

// CollapseToHosts builds the host-level graph from a page-level graph g
// and the URL of each page. All hyperlinks between any pair of pages on
// two different hosts are collapsed into a single directed edge, and
// intra-host links disappear (they would be self-links at host level).
func CollapseToHosts(g *Graph, pageURLs []string) (*HostGraph, error) {
	if len(pageURLs) != g.NumNodes() {
		return nil, fmt.Errorf("graph: %d URLs for %d pages", len(pageURLs), g.NumNodes())
	}
	index := make(map[string]NodeID)
	var names []string
	pageHost := make([]NodeID, g.NumNodes())
	for p, url := range pageURLs {
		host := HostOf(url)
		if host == "" {
			return nil, fmt.Errorf("graph: page %d has URL %q with empty host", p, url)
		}
		id, ok := index[host]
		if !ok {
			id = NodeID(len(names))
			index[host] = id
			names = append(names, host)
		}
		pageHost[p] = id
	}
	b := NewBuilder(len(names))
	g.Edges(func(x, y NodeID) bool {
		b.AddEdge(pageHost[x], pageHost[y]) // self-links dropped by AddEdge
		return true
	})
	return &HostGraph{Graph: b.Build(), Names: names, index: index}, nil
}

// NewHostGraph wraps an existing host-level graph with a name table.
func NewHostGraph(g *Graph, names []string) (*HostGraph, error) {
	if len(names) != g.NumNodes() {
		return nil, fmt.Errorf("graph: %d names for %d hosts", len(names), g.NumNodes())
	}
	index := make(map[string]NodeID, len(names))
	for i, name := range names {
		if _, dup := index[name]; dup {
			return nil, fmt.Errorf("graph: duplicate host name %q", name)
		}
		index[name] = NodeID(i)
	}
	return &HostGraph{Graph: g, Names: names, index: index}, nil
}
