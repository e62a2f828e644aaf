package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func randomGraphForCodec(rng *rand.Rand, n, maxOut int) *Graph {
	b := NewBuilder(n)
	for x := 0; x < n; x++ {
		d := rng.Intn(maxOut + 1)
		for i := 0; i < d; i++ {
			b.AddEdge(NodeID(x), NodeID(rng.Intn(n)))
		}
	}
	return b.Build()
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	equal := true
	a.Edges(func(x, y NodeID) bool {
		if !b.HasEdge(x, y) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

func TestTextRoundTrip(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {4, 0}, {3, 2}})
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Error("text round trip changed the graph")
	}
}

func TestReadTextCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nn 3\n0 1\n# another\n2 1\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("parsed %d nodes / %d edges, want 3 / 2", g.NumNodes(), g.NumEdges())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no header", "0 1\n"},
		{"malformed edge", "n 2\n01\n"},
		{"bad source", "n 2\nx 1\n"},
		{"bad destination", "n 2\n0 y\n"},
		{"out of range", "n 2\n0 9\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(c.in)); err == nil {
				t.Errorf("ReadText(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := FromEdges(6, [][2]NodeID{{0, 5}, {5, 0}, {2, 3}, {2, 4}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !graphsEqual(g, g2) {
		t.Error("binary round trip changed the graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SMGR\x02"),             // bad version
		[]byte("SMGR\x01\x05"),         // truncated after node count
		[]byte("SMGR\x01\x02\x01\x07"), // adjacency out of range
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: ReadBinary accepted garbage", i)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphForCodec(rng, 1+rng.Intn(60), 5)
		var tb, bb bytes.Buffer
		if err := WriteText(&tb, g); err != nil {
			return false
		}
		if err := WriteBinary(&bb, g); err != nil {
			return false
		}
		gt, err := ReadText(&tb)
		if err != nil {
			return false
		}
		gb, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		return graphsEqual(g, gt) && graphsEqual(g, gb) && gb.Validate() == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestEmptyGraphRoundTrip(t *testing.T) {
	g := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary(empty): %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary(empty): %v", err)
	}
	if g2.NumNodes() != 0 || g2.NumEdges() != 0 {
		t.Errorf("empty graph round trip produced %d nodes / %d edges", g2.NumNodes(), g2.NumEdges())
	}
}

// scanRows streams data through ReadBinaryHeader and ScanBinaryRows,
// returning the rows in order (copied, since the scan reuses its row)
// and what stopped it.
func scanRows(data []byte) ([][]NodeID, error) {
	br := bytes.NewReader(data)
	n, err := ReadBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	var rows [][]NodeID
	err = ScanBinaryRows(br, n, func(x NodeID, adj []NodeID) {
		if int(x) == len(rows) {
			rows = append(rows, slices.Clone(adj))
		}
	})
	return rows, err
}

// decodeBoth decodes data with ReadBinary and with ScanBinaryRows and
// fails t unless both accept it with the same rows or both reject it
// with the same error. It returns the decoded graph, or the error.
func decodeBoth(t *testing.T, data []byte) (*Graph, error) {
	t.Helper()
	g, err := ReadBinary(bytes.NewReader(data))
	rows, serr := scanRows(data)
	if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
		t.Fatalf("ReadBinary error %v, ScanBinaryRows error %v", err, serr)
	}
	if err != nil {
		return nil, err
	}
	if len(rows) != g.NumNodes() {
		t.Fatalf("ScanBinaryRows gave %d rows for %d nodes", len(rows), g.NumNodes())
	}
	for x, row := range rows {
		if !slices.Equal(row, g.OutNeighbors(NodeID(x))) {
			t.Fatalf("node %d: ScanBinaryRows row %v, ReadBinary row %v", x, row, g.OutNeighbors(NodeID(x)))
		}
	}
	return g, nil
}

// binaryBytes is the SMGR encoding of g.
func binaryBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryGolden pins WriteBinary's bytes: files written by genweb,
// the benchmark inputs and persisted snapshots must stay readable, and
// a round trip alone passes for any self-consistent drift. Node 2 has
// an empty row and no in-links, node 130 in-links but no out-links,
// and 130 is stored both as a gap (129, from 1) and as a first element,
// each a 2-byte varint.
func TestBinaryGolden(t *testing.T) {
	g := FromEdges(131, [][2]NodeID{{0, 1}, {0, 130}, {1, 0}, {3, 130}})
	want := "SMGR\x01\x83\x01" + // magic, version 1, 131 nodes
		"\x02\x01\x81\x01" + // node 0: degree 2, 1, gap 129
		"\x01\x00" + // node 1: degree 1, 0
		"\x00" + // node 2: empty row
		"\x01\x82\x01" + // node 3: degree 1, 130
		strings.Repeat("\x00", 127) // nodes 4..130, 130 dangling
	got := binaryBytes(t, g)
	if string(got) != want {
		t.Fatalf("WriteBinary wrote\n%q\nwant\n%q", got, want)
	}
	back, err := decodeBoth(t, got)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("golden bytes decode to a different graph")
	}
}

// The TestGapList* cases hold the row codec — a degree, then the
// first neighbor absolute and each later one as the gap to its
// predecessor — through both of its readers.

func TestGapListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomGraphForCodec(rng, 1+rng.Intn(1000), 40)
		back, err := decodeBoth(t, binaryBytes(t, g))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graphsEqual(g, back) {
			t.Fatalf("trial %d: round trip changed the graph", trial)
		}
	}
}

func TestGapListConcatenated(t *testing.T) {
	// Rows back to back, one of them empty, the last with a gap past
	// one byte: one reader decodes them all and stops where they end.
	rows := [][]NodeID{{3, 9, 10}, {0}, {}, {5, 6, 7, 2000}}
	var edges [][2]NodeID
	for x, row := range rows {
		for _, y := range row {
			edges = append(edges, [2]NodeID{NodeID(x), y})
		}
	}
	data := binaryBytes(t, FromEdges(2001, edges))
	r := bytes.NewReader(data)
	n, err := ReadBinaryHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	err = ScanBinaryRows(r, n, func(x NodeID, adj []NodeID) {
		var want []NodeID
		if int(x) < len(rows) {
			want = rows[x]
		}
		if !slices.Equal(adj, want) {
			t.Fatalf("row %d = %v, want %v", x, adj, want)
		}
	})
	if err != nil || r.Len() != 0 {
		t.Fatalf("scan ended with %v and %d of %d bytes unread", err, r.Len(), len(data))
	}
	if _, err := decodeBoth(t, data); err != nil {
		t.Fatal(err)
	}
}

func TestGapListTruncated(t *testing.T) {
	data := binaryBytes(t, FromEdges(131, [][2]NodeID{{0, 1}, {0, 5}, {0, 130}, {1, 129}}))
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeBoth(t, data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", cut, len(data))
		}
	}
}

func TestGapListRejectsMalformed(t *testing.T) {
	header := func(n uint64) []byte {
		return binary.AppendUvarint([]byte("SMGR\x01"), n)
	}
	uvarints := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"zero gap", uvarints(header(10), 2, 5, 0), "not increasing"},
		{"element equal to n", uvarints(header(10), 1, 10), "outside [0,10)"},
		{"gap past n", uvarints(header(10), 2, 4, 6), "outside [0,10)"},
		{"value 2^64-1", uvarints(header(1<<32), 1, math.MaxUint64), "outside"},
		{"first element past MaxUint32", uvarints(header(1<<32), 1, math.MaxUint32+1), "outside"},
		{"gap past MaxUint32", uvarints(header(1<<32), 2, math.MaxUint32, 1), "outside"},
		{"gap wrapping uint64", uvarints(header(1<<32), 2, 7, math.MaxUint64), "not increasing"},
		{"truncated varint", append(header(3), 1, 0x80), "adjacency"},
		{"row truncated mid-way", uvarints(header(3), 3, 1, 1), "node 0 adjacency: EOF"},
		{"missing row", uvarints(header(3), 1, 2, 0), "node 2 degree"},
		{"self-link", uvarints(header(3), 0, 2, 0, 1), "self-link at node 1"},
	} {
		_, err := decodeBoth(t, c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
