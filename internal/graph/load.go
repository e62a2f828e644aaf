package graph

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"spammass/internal/obs"
)

// LoadFile reads a graph file in either the text edge-list or the
// binary SMGR format, sniffing the binary magic to pick the codec.
// It is the shared loader of the CLIs and returns a filled GraphInfo
// alongside the graph. octx, when non-nil, additionally records a
// "graph.load" span (path, format, node/edge counts, bytes read) and
// the graph.* metrics; a nil octx costs nothing beyond the info.
func LoadFile(path string, octx *obs.Context) (*Graph, *obs.GraphInfo, error) {
	sp := octx.Span("graph.load")
	defer sp.End()
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: open %s: %w", path, err)
	}
	defer f.Close()
	cr := &obs.CountingReader{R: f}
	br := bufio.NewReaderSize(cr, 1<<20)
	format := "text"
	if magic, perr := br.Peek(len(binaryMagic)); perr == nil && string(magic) == binaryMagic {
		format = "binary"
	}
	var g *Graph
	if format == "binary" {
		g, err = ReadBinary(br)
	} else {
		g, err = ReadText(br)
	}
	if err != nil {
		return nil, nil, err
	}
	info := &obs.GraphInfo{
		Path:   path,
		Format: format,
		Nodes:  g.NumNodes(),
		Edges:  int64(g.NumEdges()),
		Bytes:  cr.N,
		LoadNS: int64(time.Since(start)),
	}
	if sp != nil {
		sp.SetAttr("path", path)
		sp.SetAttr("format", format)
		sp.SetAttr("nodes", info.Nodes)
		sp.SetAttr("edges", info.Edges)
		sp.SetAttr("bytes", info.Bytes)
	}
	if octx != nil {
		octx.Gauge("graph.nodes").Set(float64(info.Nodes))
		octx.Gauge("graph.edges").Set(float64(info.Edges))
		octx.Counter("graph.bytes_read_total").Add(cr.N)
		octx.Histogram("graph.load_seconds").Observe(time.Since(start).Seconds())
	}
	return g, info, nil
}
