package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spammass/internal/delta"
)

// walFileWithBatches builds a valid single-segment WAL containing the
// given batches, returning the raw segment bytes.
func walFileWithBatches(t testing.TB, batches []*delta.Batch) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	for i, b := range batches {
		if _, err := w.Append(b); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	return data
}

// FuzzWALReplay feeds arbitrary bytes to the WAL scanner as the final
// (active) segment. Whatever the bytes are, opening must either fail
// cleanly or yield a log whose replay terminates without panic, whose
// records all carry contiguous sequences from 1, and which accepts a
// new append afterward. If the input is a valid log prefix, the whole
// records in it must survive byte-for-byte. Run the seeds as normal
// tests, or explore with `go test -fuzz=FuzzWALReplay ./internal/ingest/`.
func FuzzWALReplay(f *testing.F) {
	// Seeds: empty, header-only, one and two real records, a torn tail,
	// a flipped payload byte, and pure noise.
	seedBatches := []*delta.Batch{
		{Ops: []delta.Op{delta.AddHostOp("s1.example")}},
		{Ops: []delta.Op{delta.AddEdgeOp("s1.example", "s2.example")}},
	}
	whole := walFileWithBatches(f, seedBatches)
	f.Add([]byte{})
	f.Add(whole[:segHdrLen])
	f.Add(whole)
	f.Add(whole[:len(whole)-3]) // torn tail
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)-2] ^= 0xFF
	f.Add(corrupt)
	f.Add([]byte("SMWL\x01\x00\x00\x00garbage that is not a record"))
	f.Add(bytes.Repeat([]byte{0xA5}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALConfig{})
		if err != nil {
			// A rejected log must be rejected as corruption, not by a
			// stray panic or an unclassified failure.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenWAL failed without ErrCorrupt: %v", err)
			}
			return
		}
		defer w.Close()

		var seqs []uint64
		var got []*delta.Batch
		if err := w.Replay(1, func(seq uint64, b *delta.Batch) error {
			seqs = append(seqs, seq)
			got = append(got, b)
			return nil
		}); err != nil {
			t.Fatalf("Replay after successful open: %v", err)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("replayed sequences not contiguous from 1: %v", seqs)
			}
		}
		if uint64(len(seqs)) != w.LastSeq() {
			t.Fatalf("replayed %d records but LastSeq is %d", len(seqs), w.LastSeq())
		}

		// A byte-identical copy of the reference log must restore every
		// batch exactly; any prefix of it keeps a prefix of them.
		if bytes.HasPrefix(whole, data) {
			for i, b := range got {
				if !reflect.DeepEqual(b, seedBatches[i]) {
					t.Fatalf("record %d did not round-trip: %v vs %v", i, b, seedBatches[i])
				}
			}
			if bytes.Equal(data, whole) && len(got) != len(seedBatches) {
				t.Fatalf("intact log replayed %d of %d batches", len(got), len(seedBatches))
			}
		}

		// The truncated log must accept the next append and replay it.
		next := &delta.Batch{Ops: []delta.Op{delta.AddHostOp("after.example")}}
		seq, err := w.Append(next)
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if seq != uint64(len(seqs))+1 {
			t.Fatalf("append got seq %d after %d survivors", seq, len(seqs))
		}
		found := false
		if err := w.Replay(seq, func(s uint64, b *delta.Batch) error {
			if s == seq {
				found = reflect.DeepEqual(b, next)
			}
			return nil
		}); err != nil {
			t.Fatalf("replaying appended record: %v", err)
		}
		if !found {
			t.Fatalf("appended record (seq %d) not replayed", seq)
		}
	})
}

// FuzzReadSnapshotFile feeds arbitrary snapshot bodies to the snapshot
// decoder behind ReadSnapshotFile, past the file read and the CRC32C
// check, so every mutation reaches it. Whatever the body is, decoding
// must not panic, and a state it accepts must be self-consistent: P,
// PCore, the host names and the graph's nodes have one length, and
// every core node is in range. Explore with
// `go test -fuzz=FuzzReadSnapshotFile ./internal/ingest/`.
func FuzzReadSnapshotFile(f *testing.F) {
	dir := f.TempDir()
	path, err := WriteSnapshotFile(dir, SnapshotStateOf(testServeSnapshot(f, 3), 7))
	if err != nil {
		f.Fatalf("WriteSnapshotFile: %v", err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("reading snapshot: %v", err)
	}
	body := whole[:len(whole)-4]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(body[:len(snapMagic)+1])
	f.Add([]byte{})
	f.Add([]byte("SMSS\x01\x01\x00"))
	for _, b := range misplacedVectorBodies(f) {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			return
		}
		st, err := decodeSnapshot(body)
		if err != nil {
			return
		}
		n := st.Hosts.Graph.NumNodes()
		if len(st.Hosts.Names) != n || len(st.P) != n || len(st.PCore) != n {
			t.Fatalf("accepted inconsistent state: %d nodes, %d names, %d P, %d PCore",
				n, len(st.Hosts.Names), len(st.P), len(st.PCore))
		}
		for _, x := range st.Core {
			if int(x) >= n {
				t.Fatalf("accepted core node %d of a %d-node graph", x, n)
			}
		}
		// Every field of an accepted body is read from bytes of its own,
		// so the body is at least as long as the state's own encoding,
		// which writes every varint in its shortest form.
		var enc bytes.Buffer
		if err := encodeSnapshot(&enc, st); err != nil {
			t.Fatalf("accepted a state that does not encode: %v", err)
		}
		if enc.Len() > len(body) {
			t.Fatalf("accepted a %d-byte body whose state encodes to %d bytes", len(body), enc.Len())
		}
	})
}
