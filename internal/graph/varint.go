package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Gap-encoded adjacency lists (WebGraph-style). A strictly increasing
// list x_0 < x_1 < ... < x_{d-1} is stored as the uvarints
//
//	x_0, x_1−x_0, x_2−x_1, ..., x_{d-1}−x_{d-2}
//
// i.e. the first element absolute and every later element as the gap
// to its predecessor. Because CSR adjacency is sorted, gaps are small
// for locally dense graphs and most entries fit in one or two bytes.
// This is the wire format of the on-disk graph (internal/diskgraph,
// format version 1); the degree is carried out of band by the caller.

// AppendGapList appends the gap encoding of list, which must be
// strictly increasing, to dst and returns the extended slice.
func AppendGapList(dst []byte, list []NodeID) []byte {
	prev := NodeID(0)
	for i, x := range list {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(x))
		} else {
			if x <= prev {
				panic(fmt.Sprintf("graph: AppendGapList input not strictly increasing at position %d (%d after %d)", i, x, prev))
			}
			dst = binary.AppendUvarint(dst, uint64(x-prev))
		}
		prev = x
	}
	return dst
}

// GapDecoder streams one gap-encoded list from an io.ByteReader. It is
// the one decoder of the format: internal/diskgraph, whose adjacency
// never fits in memory at once, reads through it, and an in-memory
// buffer decodes through a bytes.Reader. Every decoded list is strictly
// increasing with every element < n; truncated or malformed input
// yields an error, never a panic, so the decoder is safe on untrusted
// bytes. Reuse a decoder across lists via Reset.
type GapDecoder struct {
	br   io.ByteReader
	n    uint64 // exclusive upper bound on decoded values
	prev uint64
	rem  int
	pos  int // elements already decoded in the current list
}

// NewGapDecoder returns a decoder reading from br that rejects any
// decoded value ≥ n.
func NewGapDecoder(br io.ByteReader, n uint64) *GapDecoder {
	return &GapDecoder{br: br, n: n}
}

// Reset prepares the decoder for a new list of deg elements.
func (d *GapDecoder) Reset(deg int) {
	d.prev, d.rem, d.pos = 0, deg, 0
}

// Remaining returns the number of elements left in the current list.
func (d *GapDecoder) Remaining() int { return d.rem }

// Next decodes the next element of the current list. Calling Next with
// no elements remaining returns io.EOF; any decode failure (including
// a truncated stream, which surfaces as io.ErrUnexpectedEOF from the
// underlying reader semantics) is returned as an error.
func (d *GapDecoder) Next() (NodeID, error) {
	if d.rem <= 0 {
		return 0, io.EOF
	}
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF && d.pos > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("graph: gap list element %d: %w", d.pos, err)
	}
	if d.pos == 0 {
		d.prev = v
	} else {
		if v == 0 {
			return 0, fmt.Errorf("graph: zero gap at element %d", d.pos)
		}
		d.prev += v
	}
	if d.prev >= d.n || d.prev > math.MaxUint32 {
		return 0, fmt.Errorf("graph: gap list element %d decodes to %d outside [0,%d)", d.pos, d.prev, d.n)
	}
	d.rem--
	d.pos++
	return NodeID(d.prev), nil
}
