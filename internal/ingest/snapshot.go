package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
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

// ReadSnapshotFile loads and verifies one snapshot file.
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
	r := bytes.NewReader(body)
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("ingest: snapshot %s: %w", path, err)
	}
	if string(magic[:4]) != snapMagic || magic[4] != snapVersion {
		return nil, fmt.Errorf("ingest: snapshot %s: bad magic/version %q %d", path, magic[:4], magic[4])
	}
	fail := func(field string, err error) (*SnapshotState, error) {
		return nil, fmt.Errorf("ingest: snapshot %s: %s: %w", path, field, err)
	}
	st := &SnapshotState{}
	epoch, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("epoch", err)
	}
	if epoch == 0 || epoch > math.MaxInt64 {
		return nil, fmt.Errorf("ingest: snapshot %s: epoch %d out of range", path, epoch)
	}
	st.Epoch = int64(epoch)
	if st.AppliedSeq, err = binary.ReadUvarint(r); err != nil {
		return fail("applied seq", err)
	}
	readF64 := func() (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	if st.Damping, err = readF64(); err != nil {
		return fail("damping", err)
	}
	if st.Gamma, err = readF64(); err != nil {
		return fail("gamma", err)
	}
	ncore, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("core size", err)
	}
	if ncore > uint64(r.Len()) {
		return nil, fmt.Errorf("ingest: snapshot %s: core size %d exceeds file", path, ncore)
	}
	st.Core = make([]graph.NodeID, ncore)
	for i := range st.Core {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return fail("core node", err)
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("ingest: snapshot %s: core node %d out of range", path, v)
		}
		st.Core[i] = graph.NodeID(v)
	}
	nn, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("host count", err)
	}
	if nn > uint64(r.Len()) {
		return nil, fmt.Errorf("ingest: snapshot %s: host count %d exceeds file", path, nn)
	}
	names := make([]string, nn)
	for i := range names {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return fail("name length", err)
		}
		if l > uint64(r.Len()) {
			return nil, fmt.Errorf("ingest: snapshot %s: name length %d exceeds file", path, l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return fail("name", err)
		}
		names[i] = string(b)
	}
	g, err := graph.ReadBinary(bufio.NewReader(r))
	if err != nil {
		return fail("graph", err)
	}
	// ReadBinary pulled bytes through its own buffer, so r's position is
	// no longer meaningful — but the two vectors are by construction the
	// last 16·n bytes of the body, so address them from the end.
	want := int(nn) * 16
	if len(body) < want {
		return nil, fmt.Errorf("ingest: snapshot %s: truncated vectors", path)
	}
	rest := body[len(body)-want:]
	st.P = make([]float64, nn)
	st.PCore = make([]float64, nn)
	for i := 0; i < int(nn); i++ {
		st.P[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	off := int(nn) * 8
	for i := 0; i < int(nn); i++ {
		st.PCore[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[off+i*8:]))
	}
	if g.NumNodes() != int(nn) {
		return nil, fmt.Errorf("ingest: snapshot %s: graph has %d nodes, %d names", path, g.NumNodes(), nn)
	}
	st.Hosts, err = graph.NewHostGraph(g, names)
	if err != nil {
		return fail("host graph", err)
	}
	for _, x := range st.Core {
		if int(x) >= int(nn) {
			return nil, fmt.Errorf("ingest: snapshot %s: core node %d out of graph", path, x)
		}
	}
	return st, nil
}

// LatestSnapshot returns the newest readable snapshot in dir, or nil
// when none exists. Unreadable candidates (torn by a crash before the
// rename, or bit-rotted past their CRC) are skipped with a log line,
// never fatal: the WAL can always replay from further back.
func LatestSnapshot(dir string, logf func(format string, args ...any)) (*SnapshotState, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	type cand struct {
		seq   uint64
		epoch int64
		path  string
	}
	var cands []cand
	for _, e := range entries {
		if seq, epoch, ok := parseSnapshotName(e.Name()); ok {
			cands = append(cands, cand{seq, epoch, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seq != cands[j].seq {
			return cands[i].seq > cands[j].seq
		}
		return cands[i].epoch > cands[j].epoch
	})
	for _, c := range cands {
		st, err := ReadSnapshotFile(c.path)
		if err != nil {
			if logf != nil {
				logf("ingest: skipping unreadable snapshot %s: %v", c.path, err)
			}
			continue
		}
		return st, c.path, nil
	}
	return nil, "", nil
}

// pruneSnapshots removes all but the keep newest snapshot files.
func pruneSnapshots(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type cand struct {
		seq   uint64
		epoch int64
		path  string
	}
	var cands []cand
	for _, e := range entries {
		if seq, epoch, ok := parseSnapshotName(e.Name()); ok {
			cands = append(cands, cand{seq, epoch, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seq != cands[j].seq {
			return cands[i].seq > cands[j].seq
		}
		return cands[i].epoch > cands[j].epoch
	})
	for _, c := range cands[min(keep, len(cands)):] {
		if err := os.Remove(c.path); err != nil {
			return err
		}
	}
	return nil
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
