package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the decoders: arbitrary input must never panic, and
// anything that decodes must satisfy the graph invariants. Run the
// seeds as normal tests, or explore with `go test -fuzz=FuzzReadBinary`.

func FuzzReadBinary(f *testing.F) {
	// Seeds: a valid encoding, truncations, and corruptions.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {4, 0}})); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SMGR"))
	f.Add([]byte("SMGR\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	// A header claiming 3,489,660,927 nodes followed by 8 bytes: the
	// decoder must fail on the truncation without first allocating
	// 26 GiB of offsets for the claimed count.
	f.Add([]byte("SMGR\x01\xff\xff\xff\xff\f\xf7\r\xff\xff\xff\xff\xff\xee"))
	f.Add([]byte{})
	// Row codec edge cases: rows back to back with an empty one and a
	// 2-byte gap, a zero gap, an element past n, a varint cut short,
	// values past MaxUint32 under the largest node count, a self-link.
	if err := WriteBinary(&buf, FromEdges(2001, [][2]NodeID{{0, 3}, {0, 9}, {1, 0}, {3, 5}, {3, 2000}})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[len(valid):])
	f.Add([]byte("SMGR\x01\x0a\x02\x05\x00"))
	f.Add(binary.AppendUvarint([]byte("SMGR\x01\x0a\x01"), 1<<40))
	f.Add([]byte("SMGR\x01\x03\x01\x80"))
	f.Add([]byte("SMGR\x01\x80\x80\x80\x80\x10\x02\xff\xff\xff\xff\x0f\x01"))
	f.Add([]byte("SMGR\x01\x05\x01\x01\x01\x02\x00\x00\x01\x04")) // self-link at node 4
	f.Fuzz(func(t *testing.T, data []byte) {
		// The out-of-core row scanner must accept and reject exactly
		// what ReadBinary does, with the same rows and errors.
		g, err := decodeBoth(t, data)
		if err != nil {
			return
		}
		// ReadBinary runs no Validate pass of its own: its row decoder
		// must already have enforced everything Validate checks.
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph violates invariants: %v", err)
		}
		// Round trip: re-encoding and re-decoding must be stable.
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		g2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// gapBytes is the gap encoding of a strictly increasing row, as
// WriteBinary writes it after the degree: the first element absolute,
// each later one as the gap to its predecessor.
func gapBytes(row ...NodeID) []byte {
	var b []byte
	prev := NodeID(0)
	for _, y := range row {
		b = binary.AppendUvarint(b, uint64(y-prev))
		prev = y
	}
	return b
}

// FuzzGapList feeds arbitrary bytes, after a degree of deg, to the row
// decoder as the row of the last node of a 2³²-node graph: it must
// never panic, whatever it decodes — including the prefix before a
// failure — must be strictly increasing and free of self-links, and a
// row that decodes fully must re-encode canonically and decode back to
// itself (round-trip stability, even when the input used padded
// varints).
func FuzzGapList(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(gapBytes(3, 9, 10), uint16(3))
	f.Add(gapBytes(0, 1, 2, 3), uint16(4))
	f.Add([]byte{0x80}, uint16(1))                     // truncated varint
	f.Add([]byte{5, 0, 1}, uint16(3))                  // zero gap
	f.Add(binary.AppendUvarint(nil, 1<<40), uint16(1)) // out of range
	f.Add(gapBytes(1<<32-1), uint16(1))                // self-link
	f.Fuzz(func(t *testing.T, data []byte, degRaw uint16) {
		const n = uint64(1) << 32
		const x = int(n - 1)
		deg := uint64(degRaw % 256)
		row := append(binary.AppendUvarint(nil, deg), data...)
		list, err := appendRow(bytes.NewReader(row), nil, x, n)
		for i, y := range list {
			if int(y) == x {
				t.Fatalf("decoded a self-link at position %d", i)
			}
			if i > 0 && y <= list[i-1] {
				t.Fatalf("decoded row not strictly increasing at %d", i)
			}
		}
		if err != nil {
			return
		}
		re := append(binary.AppendUvarint(nil, deg), gapBytes(list...)...)
		r := bytes.NewReader(re)
		back, err := appendRow(r, nil, x, n)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if r.Len() != 0 {
			t.Fatalf("re-decode left %d of %d canonical bytes unconsumed", r.Len(), len(re))
		}
		if !slices.Equal(back, list) {
			t.Fatalf("round trip changed the row: %v vs %v", back, list)
		}
	})
}

// textHeaderNodes returns the node count ReadText would read from
// data's header — its first line that is neither blank nor a comment,
// scanned the way ReadText scans it — or 0 when that line is no header
// (ReadText then fails before allocating anything).
func textHeaderNodes(data string) int {
	for _, line := range strings.Split(data, "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(text, "n %d", &n); err != nil {
			return 0
		}
		return n
	}
	return 0
}

func FuzzReadText(f *testing.F) {
	f.Add("n 3\n0 1\n2 1\n")
	f.Add("n 0\n")
	f.Add("")
	f.Add("n 2\n0 9\n")
	f.Add("# comment\nn 1\n")
	f.Add("n 4294967295\n0 1\n")
	f.Add("n 4724967295\n")
	f.Add("n -1\n")
	f.Fuzz(func(t *testing.T, data string) {
		// Guard against adversarial header sizes exhausting memory: the
		// builder legitimately allocates per declared node, so skip any
		// input whose header declares more than 1<<20 of them.
		if len(data) > 1<<16 || textHeaderNodes(data) > 1<<20 {
			return
		}
		g, err := ReadText(strings.NewReader(data))
		if err != nil {
			return
		}
		// ReadBinary runs no Validate pass of its own: its row decoder
		// must already have enforced everything Validate checks.
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph violates invariants: %v", err)
		}
	})
}

func FuzzCollapseToHosts(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2}, "http://a.com/x\nhttp://b.org/y\nhttp://a.com/z")
	f.Add(uint8(2), []byte{0, 1}, "a.com\n")
	f.Add(uint8(1), []byte{}, "")
	f.Add(uint8(4), []byte{0, 0, 1, 3, 3, 1}, "X.COM:80\nx.com.\nuser@x.com/p\n://:")
	f.Fuzz(func(t *testing.T, n uint8, edgeBytes []byte, urlBlob string) {
		nodes := int(n)
		var edges [][2]NodeID
		for i := 0; i+1 < len(edgeBytes) && nodes > 0; i += 2 {
			edges = append(edges, [2]NodeID{
				NodeID(int(edgeBytes[i]) % nodes),
				NodeID(int(edgeBytes[i+1]) % nodes),
			})
		}
		g := FromEdges(nodes, edges)
		// URLs: one per line, padded with a synthetic host per missing
		// page and truncated to the page count, so both the
		// length-mismatch error path and the collapse path are fuzzed.
		urls := strings.Split(urlBlob, "\n")
		if len(urls) > nodes {
			urls = urls[:nodes]
		}
		hg, err := CollapseToHosts(g, urls)
		if err != nil {
			return // mismatched lengths or empty hosts reject cleanly
		}
		if err := hg.Graph.Validate(); err != nil {
			t.Fatalf("collapsed graph violates invariants: %v", err)
		}
		if len(hg.Names) != hg.Graph.NumNodes() {
			t.Fatalf("%d names for %d hosts", len(hg.Names), hg.Graph.NumNodes())
		}
		for i, name := range hg.Names {
			if name == "" {
				t.Fatalf("host %d has empty name", i)
			}
			id, ok := hg.NodeByName(name)
			if !ok || id != NodeID(i) {
				t.Fatalf("NodeByName(%q) = %d,%v; want %d", name, id, ok, i)
			}
		}
		// Host count never exceeds page count; collapsing is surjective.
		if hg.Graph.NumNodes() > g.NumNodes() {
			t.Fatalf("collapse grew the graph: %d hosts from %d pages", hg.Graph.NumNodes(), g.NumNodes())
		}
	})
}

func FuzzHostOf(f *testing.F) {
	f.Add("http://www.example.com/path")
	f.Add("EXAMPLE.com:8080")
	f.Add("http://user@host.org./x")
	f.Add("")
	f.Add("://:")
	f.Add("a@b@c:99:")
	f.Fuzz(func(t *testing.T, url string) {
		host := HostOf(url)
		// The host never contains a path separator and is lower-case.
		if strings.ContainsAny(host, "/") {
			t.Fatalf("HostOf(%q) = %q contains a slash", url, host)
		}
		if host != strings.ToLower(host) {
			t.Fatalf("HostOf(%q) = %q not lower-cased", url, host)
		}
		// Idempotence: extracting again changes nothing.
		if again := HostOf(host); again != host && !strings.Contains(host, ":") {
			t.Fatalf("HostOf not idempotent: %q -> %q -> %q", url, host, again)
		}
	})
}
