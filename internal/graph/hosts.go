package graph

import (
	"fmt"
	"hash/maphash"
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
//
// Names are kept as given, so when they are substrings of one loaded
// name file (cliobs.LoadLines) or snapshot body, that whole string
// stays alive while any one name from it is live.
type HostGraph struct {
	Graph *Graph
	// Names[x] is the host name of node x.
	Names []string
	// index maps a host name back to its node ID. It is built once at
	// construction, never exported and never written afterwards, so
	// every holder of the HostGraph — a serving snapshot included —
	// reads it through NodeByName without a copy; a delta builds a new
	// HostGraph with its own index rather than mutating this one.
	index nameIndex
}

// nameIndex is an open-addressing hash table from a name in Names to
// its position: a slot holds ID + 1, 0 marks it empty, and collisions
// probe linearly. len(slots) is a power of two at least twice the
// number of names, so the load factor stays at most ½ and every probe
// meets an empty slot. The table holds no pointers — 4 bytes a slot
// against a map's per-entry string header, ID and bucket overhead —
// so the collector never scans it.
type nameIndex struct {
	seed  maphash.Seed
	slots []uint32
}

// tableSize is the smallest power of two at least 2n.
func tableSize(n int) int {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return size
}

// find probes for name, whose hash under ix.seed is h, among names.
// It returns the slot holding it (ok) or the empty slot where it
// belongs (!ok).
func (ix *nameIndex) find(names []string, name string, h uint64) (slot int, id NodeID, ok bool) {
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return int(i), 0, false
		}
		if names[s-1] == name {
			return int(i), NodeID(s - 1), true
		}
	}
}

// rehash doubles the table and re-inserts every name from its stored
// hash: the names are distinct, so each takes the first empty slot.
func (ix *nameIndex) rehash(hashes []uint64) {
	ix.slots = make([]uint32, 2*len(ix.slots))
	mask := uint64(len(ix.slots) - 1)
	for id, h := range hashes {
		i := h & mask
		for ix.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = uint32(id) + 1
	}
}

// NodeByName returns the node ID for a host name.
func (h *HostGraph) NodeByName(name string) (NodeID, bool) {
	if len(h.index.slots) == 0 {
		return 0, false
	}
	_, id, ok := h.index.find(h.Names, name, maphash.String(h.index.seed, name))
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
	ix := nameIndex{seed: maphash.MakeSeed(), slots: make([]uint32, tableSize(0))}
	var names []string
	// hashes[id] is names[id]'s hash, kept so that growing the table
	// does not hash a name twice.
	var hashes []uint64
	pageHost := make([]NodeID, g.NumNodes())
	for p, url := range pageURLs {
		host := HostOf(url)
		if host == "" {
			return nil, fmt.Errorf("graph: page %d has URL %q with empty host", p, url)
		}
		h := maphash.String(ix.seed, host)
		slot, id, ok := ix.find(names, host, h)
		if !ok {
			id = NodeID(len(names))
			names = append(names, host)
			hashes = append(hashes, h)
			ix.slots[slot] = uint32(id) + 1
			if 2*len(names) > len(ix.slots) {
				ix.rehash(hashes)
			}
		}
		pageHost[p] = id
	}
	b := NewBuilder(len(names))
	g.Edges(func(x, y NodeID) bool {
		b.AddEdge(pageHost[x], pageHost[y]) // self-links dropped by AddEdge
		return true
	})
	return &HostGraph{Graph: b.Build(), Names: names, index: ix}, nil
}

// NewHostGraph wraps an existing host-level graph with a name table.
func NewHostGraph(g *Graph, names []string) (*HostGraph, error) {
	if len(names) != g.NumNodes() {
		return nil, fmt.Errorf("graph: %d names for %d hosts", len(names), g.NumNodes())
	}
	ix := nameIndex{seed: maphash.MakeSeed(), slots: make([]uint32, tableSize(len(names)))}
	for i, name := range names {
		slot, _, dup := ix.find(names, name, maphash.String(ix.seed, name))
		if dup {
			return nil, fmt.Errorf("graph: duplicate host name %q", name)
		}
		ix.slots[slot] = uint32(i) + 1
	}
	return &HostGraph{Graph: g, Names: names, index: ix}, nil
}
