package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

func randIncreasing(rng *rand.Rand, n, maxDeg int) []NodeID {
	deg := rng.Intn(maxDeg + 1)
	if deg > n {
		deg = n
	}
	seen := make(map[NodeID]bool, deg)
	for len(seen) < deg {
		seen[NodeID(rng.Intn(n))] = true
	}
	list := make([]NodeID, 0, deg)
	for x := range seen {
		list = append(list, x)
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j] < list[j-1]; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	return list
}

// decodeAll drains one deg-element list from d, returning the prefix
// decoded before the first error alongside it.
func decodeAll(d *GapDecoder, deg int) ([]NodeID, error) {
	d.Reset(deg)
	var out []NodeID
	for d.Remaining() > 0 {
		x, err := d.Next()
		if err != nil {
			return out, err
		}
		out = append(out, x)
	}
	return out, nil
}

func TestGapListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(1000)
		list := randIncreasing(rng, n, 40)
		enc := AppendGapList(nil, list)

		r := bytes.NewReader(enc)
		d := NewGapDecoder(r, uint64(n))
		got, err := decodeAll(d, len(list))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if r.Len() != 0 {
			t.Fatalf("trial %d: %d of %d bytes left unconsumed", trial, r.Len(), len(enc))
		}
		if len(got) != len(list) {
			t.Fatalf("trial %d: got %d elements, want %d", trial, len(got), len(list))
		}
		for i := range list {
			if got[i] != list[i] {
				t.Fatalf("trial %d: element %d = %d, want %d", trial, i, got[i], list[i])
			}
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("trial %d: decoder past end returned %v, want io.EOF", trial, err)
		}
	}
}

func TestGapListConcatenated(t *testing.T) {
	// Several lists back to back in one stream, as the disk format
	// stores them: one decoder, Reset per list.
	lists := [][]NodeID{{3, 9, 10}, {0}, {}, {5, 6, 7, 2000}}
	var enc []byte
	for _, l := range lists {
		enc = AppendGapList(enc, l)
	}
	r := bytes.NewReader(enc)
	d := NewGapDecoder(r, 1<<32)
	for i, l := range lists {
		got, err := decodeAll(d, len(l))
		if err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if len(got) != len(l) {
			t.Fatalf("list %d: got %d elements, want %d", i, len(got), len(l))
		}
		for j := range l {
			if got[j] != l[j] {
				t.Fatalf("list %d element %d = %d, want %d", i, j, got[j], l[j])
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d of %d bytes left unconsumed", r.Len(), len(enc))
	}
}

func TestGapListTruncated(t *testing.T) {
	list := []NodeID{1, 5, 130, 100000}
	enc := AppendGapList(nil, list)
	for cut := 0; cut < len(enc); cut++ {
		d := NewGapDecoder(bytes.NewReader(enc[:cut]), 1<<32)
		_, err := decodeAll(d, len(list))
		if err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
		if errors.Is(err, io.EOF) && cut > 0 {
			// io.EOF is only acceptable for the empty prefix, where the
			// very first read hits a clean end of stream.
			t.Fatalf("truncation at %d bytes surfaced as clean io.EOF mid-list", cut)
		}
	}
}

func TestGapListRejectsMalformed(t *testing.T) {
	// A zero gap after the first element would mean a duplicate
	// neighbor; an overlong value must trip the range check.
	decode := func(data []byte, deg int, n uint64) error {
		_, err := decodeAll(NewGapDecoder(bytes.NewReader(data), n), deg)
		return err
	}
	if err := decode([]byte{5, 0}, 2, 1<<32); err == nil {
		t.Fatal("zero gap decoded without error")
	}
	if err := decode(binary.AppendUvarint(nil, math.MaxUint64), 1, 1<<32); err == nil {
		t.Fatal("2^64-1 decoded as a node ID")
	}
	if err := decode(binary.AppendUvarint(nil, 10), 1, 10); err == nil {
		t.Fatal("node ID 10 accepted with bound n=10")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendGapList accepted a non-increasing list")
		}
	}()
	AppendGapList(nil, []NodeID{4, 4})
}

// FuzzGapList feeds arbitrary bytes to the decoder: it must never
// panic, whatever it decodes — including the prefix before a failure —
// must be strictly increasing, and anything that decodes fully must
// re-encode canonically and decode back to itself
// (round-trip stability, even when the input used padded varints).
func FuzzGapList(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(AppendGapList(nil, []NodeID{3, 9, 10}), uint16(3))
	f.Add(AppendGapList(nil, []NodeID{0, 1, 2, 3}), uint16(4))
	f.Add([]byte{0x80}, uint16(1))                     // truncated varint
	f.Add([]byte{5, 0, 1}, uint16(3))                  // zero gap
	f.Add(binary.AppendUvarint(nil, 1<<40), uint16(1)) // out of range
	f.Fuzz(func(t *testing.T, data []byte, degRaw uint16) {
		deg := int(degRaw % 256)
		const n = uint64(1) << 32
		list, err := decodeAll(NewGapDecoder(bytes.NewReader(data), n), deg)
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				t.Fatalf("decoded list not strictly increasing at %d", i)
			}
		}
		if err != nil {
			return
		}
		re := AppendGapList(nil, list)
		r := bytes.NewReader(re)
		back, err := decodeAll(NewGapDecoder(r, n), deg)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if r.Len() != 0 {
			t.Fatalf("re-decode left %d of %d canonical bytes unconsumed", r.Len(), len(re))
		}
		for i := range list {
			if back[i] != list[i] {
				t.Fatalf("round trip changed element %d: %d vs %d", i, back[i], list[i])
			}
		}
	})
}
