package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format: a header line "n <nodes>" followed by one "src dst" pair
// per line. Lines starting with '#' are comments. This mirrors the usual
// interchange format for published web graphs (e.g. WebGraph edge dumps).

// WriteText writes g in the text edge-list format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.NumNodes()); err != nil {
		return err
	}
	var err error
	g.Edges(func(x, y NodeID) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", x, y)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadText parses the text edge-list format produced by WriteText.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if b == nil {
			var n int
			if _, err := fmt.Sscanf(text, "n %d", &n); err != nil {
				return nil, fmt.Errorf("graph: line %d: expected header \"n <nodes>\": %w", line, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative node count %d", line, n)
			}
			b = NewBuilder(n)
			continue
		}
		sp := strings.IndexByte(text, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("graph: line %d: malformed edge %q", line, text)
		}
		x, err := strconv.ParseUint(text[:sp], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %w", line, err)
		}
		y, err := strconv.ParseUint(strings.TrimSpace(text[sp+1:]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination: %w", line, err)
		}
		if int(x) >= b.NumNodes() || int(y) >= b.NumNodes() {
			return nil, fmt.Errorf("graph: line %d: edge (%d,%d) outside node space [0,%d)", line, x, y, b.NumNodes())
		}
		b.AddEdge(NodeID(x), NodeID(y))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty input, missing header")
	}
	return b.Build(), nil
}

// Binary format: magic, version, node count, then the forward CSR
// (offsets as varint deltas, adjacency as varint gaps). The reverse CSR
// is rebuilt on load. Varint gap encoding keeps large power-law graphs
// compact on disk.
const (
	binaryMagic   = "SMGR"
	binaryVersion = 1
)

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	if err := putUvarint(binaryVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(g.NumNodes())); err != nil {
		return err
	}
	for x := 0; x < g.NumNodes(); x++ {
		adj := g.OutNeighbors(NodeID(x))
		if err := putUvarint(uint64(len(adj))); err != nil {
			return err
		}
		prev := uint64(0)
		for i, y := range adj {
			gap := uint64(y) - prev
			if i == 0 {
				gap = uint64(y)
			}
			if err := putUvarint(gap); err != nil {
				return err
			}
			prev = uint64(y)
		}
	}
	return bw.Flush()
}

// ReadBinary parses the compact binary format produced by WriteBinary.
// A reader that is already an io.ByteReader is read directly, not
// through a buffer of its own, so it stops exactly where the graph ends.
func ReadBinary(r io.Reader) (*Graph, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading node count: %w", err)
	}
	if n64 > 1<<32 {
		return nil, fmt.Errorf("graph: node count %d exceeds uint32 ID space", n64)
	}
	n := int(n64)
	g := &Graph{n: n}
	// The header's node count is untrusted: preallocate at most 1<<20
	// offsets and grow past that as degrees arrive, so a corrupt count
	// fails on the truncated input before its offsets are allocated.
	g.outStart = make([]int64, 1, min(n, 1<<20)+1)
	for x := 0; x < n; x++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d degree: %w", x, err)
		}
		prev := uint64(0)
		for i := uint64(0); i < deg; i++ {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: node %d adjacency: %w", x, err)
			}
			y := prev + gap
			if i == 0 {
				y = gap
			}
			if y >= n64 {
				return nil, fmt.Errorf("graph: node %d references node %d outside [0,%d)", x, y, n)
			}
			if i > 0 && y <= prev {
				return nil, fmt.Errorf("graph: node %d adjacency not increasing", x)
			}
			g.outAdj = append(g.outAdj, NodeID(y))
			prev = y
		}
		g.outStart = append(g.outStart, g.outStart[x]+int64(deg))
	}
	g.inStart, g.inAdj = reverseCSR(g.outStart, g.outAdj, n)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
