package ingest

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/serve"
)

// Snapshot persistence. A snapshot file is the compactor's product:
// the served state (host graph, names, core, P and PCore vectors) plus
// the WAL position it covers, so recovery = load snapshot + replay the
// WAL suffix. Layout:
//
//	"SMSS" magic, version byte
//	uvarint epoch, uvarint appliedSeq
//	f64le damping, f64le gamma
//	uvarint |core|, then each core node as a uvarint
//	uvarint n, then n length-prefixed host names
//	the host graph in the graph.WriteBinary codec
//	n f64le P values, n f64le PCore values
//	u32le CRC32C of everything above
//
// Abs and Rel are not stored — mass.Derive rebuilds them from P and
// PCore, which keeps the file format independent of the derivation
// details. Files are written temp → Sync → Rename → dir fsync (a
// rename of unsynced data can land before the data does), so a crash
// leaves either the old snapshot or
// the new one, never a torn file; the trailing CRC catches anything
// the filesystem lies about.
const (
	snapMagic   = "SMSS"
	snapVersion = 1
)

// SnapshotState is the persisted payload of one snapshot file.
type SnapshotState struct {
	Epoch      int64
	AppliedSeq uint64 // highest WAL sequence folded into this state
	Damping    float64
	Gamma      float64
	Core       []graph.NodeID
	Hosts      *graph.HostGraph
	P          []float64
	PCore      []float64
}

func snapshotName(seq uint64, epoch int64) string {
	return fmt.Sprintf("snap-%020d-%d.snap", seq, epoch)
}

func parseSnapshotName(name string) (seq uint64, epoch int64, ok bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	i := strings.IndexByte(body, '-')
	if i < 0 {
		return 0, 0, false
	}
	seq, err := strconv.ParseUint(body[:i], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	epoch, err = strconv.ParseInt(body[i+1:], 10, 64)
	if err != nil || epoch <= 0 {
		return 0, 0, false
	}
	return seq, epoch, true
}

// WriteSnapshotFile persists st into dir atomically and returns the
// final path. The temp file is fsynced before the rename and the
// directory after it, so the snapshot is durable when the call
// returns.
func WriteSnapshotFile(dir string, st *SnapshotState) (string, error) {
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, st); err != nil {
		return "", err
	}
	sum := crc32.Checksum(buf.Bytes(), crcTable)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	buf.Write(crc[:])

	final := filepath.Join(dir, snapshotName(st.AppliedSeq, st.Epoch))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("ingest: snapshot temp: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("ingest: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("ingest: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("ingest: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("ingest: snapshot rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("ingest: snapshot dir fsync: %w", err)
	}
	return final, nil
}

func encodeSnapshot(buf *bytes.Buffer, st *SnapshotState) error {
	n := st.Hosts.Graph.NumNodes()
	if len(st.Hosts.Names) != n || len(st.P) != n || len(st.PCore) != n {
		return fmt.Errorf("ingest: snapshot state inconsistent: %d nodes, %d names, %d P, %d PCore",
			n, len(st.Hosts.Names), len(st.P), len(st.PCore))
	}
	if st.Epoch <= 0 {
		return fmt.Errorf("ingest: snapshot epoch %d out of range", st.Epoch)
	}
	buf.WriteString(snapMagic)
	buf.WriteByte(snapVersion)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	putF64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf.Write(b[:])
	}
	putUvarint(uint64(st.Epoch))
	putUvarint(st.AppliedSeq)
	putF64(st.Damping)
	putF64(st.Gamma)
	putUvarint(uint64(len(st.Core)))
	for _, x := range st.Core {
		putUvarint(uint64(x))
	}
	putUvarint(uint64(n))
	for _, name := range st.Hosts.Names {
		putUvarint(uint64(len(name)))
		buf.WriteString(name)
	}
	bw := bufio.NewWriter(buf)
	if err := graph.WriteBinary(bw, st.Hosts.Graph); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for _, v := range st.P {
		putF64(v)
	}
	for _, v := range st.PCore {
		putF64(v)
	}
	return nil
}

// ReadSnapshotFile loads one snapshot file, checks its CRC and decodes it.
func ReadSnapshotFile(path string) (*SnapshotState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+1+4 {
		return nil, fmt.Errorf("ingest: snapshot %s: too short", path)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("ingest: snapshot %s: CRC mismatch", path)
	}
	st, err := decodeSnapshot(body)
	if err != nil {
		return nil, fmt.Errorf("ingest: snapshot %s: %w", path, err)
	}
	return st, nil
}

// decodeSnapshot decodes a CRC-checked snapshot body; the state it
// returns keeps no reference to body.
func decodeSnapshot(body []byte) (*SnapshotState, error) {
	r := bytes.NewReader(body)
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("magic: %w", err)
	}
	if string(magic[:4]) != snapMagic || magic[4] != snapVersion {
		return nil, fmt.Errorf("bad magic/version %q %d", magic[:4], magic[4])
	}
	st := &SnapshotState{}
	epoch, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	if epoch == 0 || epoch > math.MaxInt64 {
		return nil, fmt.Errorf("epoch %d out of range", epoch)
	}
	st.Epoch = int64(epoch)
	if st.AppliedSeq, err = binary.ReadUvarint(r); err != nil {
		return nil, fmt.Errorf("applied seq: %w", err)
	}
	readF64 := func() (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	if st.Damping, err = readF64(); err != nil {
		return nil, fmt.Errorf("damping: %w", err)
	}
	if st.Gamma, err = readF64(); err != nil {
		return nil, fmt.Errorf("gamma: %w", err)
	}
	ncore, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("core size: %w", err)
	}
	if ncore > uint64(r.Len()) {
		return nil, fmt.Errorf("core size %d exceeds file", ncore)
	}
	st.Core = make([]graph.NodeID, ncore)
	for i := range st.Core {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("core node: %w", err)
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("core node %d out of range", v)
		}
		st.Core[i] = graph.NodeID(v)
	}
	nn, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("host count: %w", err)
	}
	if nn > uint64(r.Len()) {
		return nil, fmt.Errorf("host count %d exceeds file", nn)
	}
	// The names are checked in one pass, then copied out of body as one
	// string that every name is a substring of (two allocations, not
	// two per host), decoding the same lengths again.
	start := len(body) - r.Len()
	for i := uint64(0); i < nn; i++ {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("name length: %w", err)
		}
		if l > uint64(r.Len()) {
			return nil, fmt.Errorf("name length %d exceeds file", l)
		}
		if _, err := r.Seek(int64(l), io.SeekCurrent); err != nil {
			return nil, fmt.Errorf("name: %w", err)
		}
	}
	table := body[start : len(body)-r.Len()]
	all := string(table)
	names := make([]string, nn)
	for i, off := 0, 0; i < len(names); i++ {
		l, k := binary.Uvarint(table[off:])
		off += k
		names[i] = all[off : off+int(l)]
		off += int(l)
	}
	// The graph is exactly the bytes between the names and the two
	// vectors, which are the last 16·n bytes of the body, and it must
	// decode whole: nothing may sit between it and the vectors.
	graphStart, vecStart := len(body)-r.Len(), len(body)-int(nn)*16
	if vecStart < graphStart {
		return nil, fmt.Errorf("truncated vectors")
	}
	gr := bytes.NewReader(body[graphStart:vecStart])
	g, err := graph.ReadBinary(gr) // its errors start with "graph:"
	if err != nil {
		return nil, err
	}
	if gr.Len() != 0 {
		return nil, fmt.Errorf("%d bytes between graph and vectors", gr.Len())
	}
	st.P, st.PCore = make([]float64, nn), make([]float64, nn)
	for i := range st.P {
		st.P[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[vecStart+8*i:]))
		st.PCore[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[vecStart+8*(int(nn)+i):]))
	}
	if g.NumNodes() != int(nn) {
		return nil, fmt.Errorf("graph has %d nodes, %d names", g.NumNodes(), nn)
	}
	if st.Hosts, err = graph.NewHostGraph(g, names); err != nil {
		return nil, err
	}
	for _, x := range st.Core {
		if int(x) >= int(nn) {
			return nil, fmt.Errorf("core node %d out of graph", x)
		}
	}
	return st, nil
}

// LatestSnapshot returns the newest readable snapshot in dir, or nil
// when none exists. Unreadable candidates (torn by a crash before the
// rename, or bit-rotted past their CRC) are skipped with a log line,
// never fatal: the WAL can always replay from further back.
func LatestSnapshot(dir string, logf func(format string, args ...any)) (*SnapshotState, string, error) {
	paths, err := snapshotPaths(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	for _, path := range paths {
		st, err := ReadSnapshotFile(path)
		if err != nil {
			if logf != nil {
				logf("ingest: skipping unreadable snapshot %s: %v", path, err)
			}
			continue
		}
		return st, path, nil
	}
	return nil, "", nil
}

// pruneSnapshots removes all but the keep newest snapshot files.
func pruneSnapshots(dir string, keep int) error {
	paths, err := snapshotPaths(dir)
	if err != nil {
		return err
	}
	for _, path := range paths[min(keep, len(paths)):] {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// snapshotPaths lists dir's snapshot files newest first, by applied
// sequence and then epoch: a refresh persisted under the sequence it
// re-solved outranks the state it replaced, when loading and pruning.
func snapshotPaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if _, _, ok := parseSnapshotName(e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	slices.SortFunc(paths, func(a, b string) int {
		seqA, epochA, _ := parseSnapshotName(filepath.Base(a))
		seqB, epochB, _ := parseSnapshotName(filepath.Base(b))
		return cmp.Or(cmp.Compare(seqB, seqA), cmp.Compare(epochB, epochA))
	})
	return paths, nil
}

// SnapshotStateOf captures the persistable state of a served snapshot.
func SnapshotStateOf(s *serve.Snapshot, appliedSeq uint64) *SnapshotState {
	est := s.Estimates()
	cfg := s.Config()
	return &SnapshotState{
		Epoch:      s.Epoch(),
		AppliedSeq: appliedSeq,
		Damping:    est.Damping,
		Gamma:      cfg.Gamma,
		Core:       s.Core(),
		Hosts:      s.HostGraph(),
		P:          est.P,
		PCore:      est.PCore,
	}
}

// BuildSnapshot turns a loaded SnapshotState back into a servable
// serve.Snapshot: Abs and Rel are re-derived from the persisted P and
// PCore, and the serving config (detect thresholds, MaxTop) comes from
// the caller since it is boot configuration, not logged state.
func (st *SnapshotState) BuildSnapshot(detect mass.DetectConfig, maxTop int) (*serve.Snapshot, error) {
	est := mass.Derive(st.P, st.PCore, st.Damping)
	cfg := serve.SnapshotConfig{
		Detect: detect,
		Gamma:  st.Gamma,
		Core:   st.Core,
		MaxTop: maxTop,
	}
	return serve.NewSnapshot(st.Hosts, est, cfg, st.Epoch)
}
