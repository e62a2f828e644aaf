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
	row := binary.AppendUvarint([]byte(binaryMagic), binaryVersion)
	row = binary.AppendUvarint(row, uint64(g.NumNodes()))
	for x := 0; x < g.NumNodes(); x++ {
		adj := g.OutNeighbors(NodeID(x))
		row = binary.AppendUvarint(row, uint64(len(adj)))
		prev := NodeID(0) // so the first neighbor is stored absolute
		for _, y := range adj {
			row = binary.AppendUvarint(row, uint64(y-prev))
			prev = y
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
		row = row[:0]
	}
	if _, err := bw.Write(row); err != nil { // the header of an empty graph
		return err
	}
	return bw.Flush()
}

// byteReader is what the binary decoders read: io.ReadFull takes the
// magic, binary.ReadUvarint every later field.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// ReadBinary parses the compact binary format produced by WriteBinary.
// A reader that is already an io.ByteReader is read directly, not
// through a buffer of its own, so it stops exactly where the graph ends.
func ReadBinary(r io.Reader) (*Graph, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	n, err := ReadBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	g := &Graph{n: n}
	// The header's node count is untrusted: preallocate at most 1<<20
	// offsets and grow past that as degrees arrive, so a corrupt count
	// fails on the truncated input before its offsets are allocated.
	g.outStart = make([]int64, 1, min(n, 1<<20)+1)
	for x := 0; x < n; x++ {
		if g.outAdj, err = appendRow(br, g.outAdj, x, uint64(n)); err != nil {
			return nil, err
		}
		g.outStart = append(g.outStart, int64(len(g.outAdj)))
	}
	// appendRow has held every row to the invariants Validate checks
	// (neighbours in range, rows strictly increasing, no self-link), and
	// the reverse CSR is built from those rows, so the graph is valid
	// without a second pass; FuzzReadBinary holds every accepted input
	// to Validate.
	g.inStart, g.inAdj = reverseCSR(g.outStart, g.outAdj, n)
	return g, nil
}

// ReadBinaryHeader reads the magic, version and node count that open
// every binary graph; it is the one parser of that header.
func ReadBinaryHeader(br byteReader) (int, error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return 0, fmt.Errorf("graph: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != binaryVersion {
		return 0, fmt.Errorf("graph: unsupported version %d", version)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("graph: reading node count: %w", err)
	}
	if n > 1<<32 {
		return 0, fmt.Errorf("graph: node count %d exceeds uint32 ID space", n)
	}
	return int(n), nil
}

// appendRow decodes row x of an n-node binary graph — the out-degree,
// then the out-neighbors, the first absolute and each later one as the
// gap to its predecessor — and appends the neighbors to adj. It is the
// one row decoder: every neighbor it returns is < n and not x, each
// row is strictly increasing, and malformed input yields an error,
// never a panic. adj grows only as neighbors arrive, so a corrupt
// degree fails on the truncated input before it is allocated.
func appendRow(br io.ByteReader, adj []NodeID, x int, n uint64) ([]NodeID, error) {
	deg, err := binary.ReadUvarint(br)
	if err != nil {
		return adj, fmt.Errorf("graph: node %d degree: %w", x, err)
	}
	prev := uint64(0)
	for i := uint64(0); i < deg; i++ {
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return adj, fmt.Errorf("graph: node %d adjacency: %w", x, err)
		}
		y := prev + gap // prev is 0 before the first, stored absolute
		if y >= n {
			return adj, fmt.Errorf("graph: node %d references node %d outside [0,%d)", x, y, n)
		}
		if i > 0 && y <= prev {
			return adj, fmt.Errorf("graph: node %d adjacency not increasing", x)
		}
		if y == uint64(x) {
			return adj, fmt.Errorf("graph: self-link at node %d", x)
		}
		adj = append(adj, NodeID(y))
		prev = y
	}
	return adj, nil
}

// ScanBinaryRows decodes the n rows that follow a binary header in
// node order and passes each to fn, which must not keep adj: the next
// row reuses it. Holding one row at a time, it is the reader of the
// out-of-core solver, whose adjacency never fits in memory at once;
// it decodes through ReadBinary's row decoder, so the two accept and
// reject the same bytes and yield the same rows. It stops at the first
// malformed row and returns its error.
func ScanBinaryRows(br io.ByteReader, n int, fn func(x NodeID, adj []NodeID)) error {
	var adj []NodeID
	for x := 0; x < n; x++ {
		var err error
		if adj, err = appendRow(br, adj[:0], x, uint64(n)); err != nil {
			return err
		}
		fn(NodeID(x), adj)
	}
	return nil
}
