package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// The /v1 hot routes (GET /v1/host, POST /v1/batch, GET /v1/top)
// render their answers with the append encoder below instead of
// encoding/json's reflection. The bytes are encoding/json's, exactly:
// the same field order, the same float formatting, the same HTML-safe
// string escaping and the same trailing newline. FuzzHostRecordJSON
// holds them to json.Marshal, and FuzzBatchRequest holds the batch
// decoder to json.Decoder. Admin and health bodies, and every error
// body but the constant 404 miss, keep writeJSON.

// maxBatchBody bounds the POST /v1/batch request body.
const maxBatchBody = 4 << 20

// maxPooledBuf is the largest buffer returned to bufPool: a 1000-host
// batch or top answer renders in ≈250 KB, and a buffer that grew past
// this (a request body of several MiB) is left to the collector.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Shared header values. net/http only reads them, and a 1-cap slice
// cannot be appended to in place, so every response may alias them.
var (
	jsonContentType = []string{"application/json"}
	// contentLengths holds the Content-Length value of every body
	// shorter than 1 KiB, so a single record (≈250 bytes) is framed
	// without allocating.
	contentLengths = func() [][]string {
		t := make([][]string, 1<<10)
		for n := range t {
			t[n] = []string{strconv.Itoa(n)}
		}
		return t
	}()
	// missBody is encoding/json's rendering of the 404 unknown-host
	// body, which a lookup answers often enough to keep off the
	// encoder.
	missBody = []byte(`{"error":"unknown host"}` + "\n")
)

// writeBody sends a rendered JSON answer with explicit framing, so a
// large batch or top answer goes out with a Content-Length instead of
// chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if n := len(body); n < len(contentLengths) {
		h["Content-Length"] = contentLengths[n]
	} else {
		h["Content-Length"] = []string{strconv.Itoa(n)}
	}
	w.WriteHeader(code)
	// A write failure means the client went away; nobody is left to
	// tell.
	_, _ = w.Write(body)
}

// appendRecord appends json.Marshal(rec) to b. Every float of rec is
// finite: NewSnapshot refuses NaN and ±Inf, and a router's records were
// decoded from JSON, which has neither.
func appendRecord(b []byte, rec *HostRecord) []byte {
	b = append(b, `{"host":`...)
	b = appendString(b, rec.Host)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, rec.Node, 10)
	b = append(b, `,"pagerank":`...)
	b = appendFloat(b, rec.PageRank)
	b = append(b, `,"core_pagerank":`...)
	b = appendFloat(b, rec.CorePageRank)
	b = append(b, `,"abs_mass":`...)
	b = appendFloat(b, rec.AbsMass)
	b = append(b, `,"rel_mass":`...)
	b = appendFloat(b, rec.RelMass)
	b = append(b, `,"label":`...)
	b = appendString(b, rec.Label)
	b = append(b, `,"evaluated":`...)
	b = strconv.AppendBool(b, rec.Evaluated)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, rec.Epoch, 10)
	return append(b, '}')
}

// appendBatch appends what json.NewEncoder(w).Encode(resp) writes.
func appendBatch(b []byte, resp *BatchResponse) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, resp.Epoch, 10)
	b = append(b, `,"records":`...)
	if resp.Records == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, rec := range resp.Records {
			if i > 0 {
				b = append(b, ',')
			}
			if rec == nil {
				b = append(b, "null"...)
			} else {
				b = appendRecord(b, rec)
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"misses":`...)
	b = strconv.AppendInt(b, int64(resp.Misses), 10)
	return append(b, "}\n"...)
}

// appendTop appends what json.NewEncoder(w).Encode(resp) writes.
func appendTop(b []byte, resp *TopResponse) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, resp.Epoch, 10)
	b = append(b, `,"metric":`...)
	b = appendString(b, resp.Metric)
	b = append(b, `,"records":`...)
	if resp.Records == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Records {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRecord(b, &resp.Records[i])
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in 'f' form for 1e-6 ≤ |f| < 1e21 (and for ±0),
// otherwise in 'e' form with strconv's two-digit negative exponent
// trimmed (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Anything but plain bytes —
// escapes, HTML characters, U+2028/2029, invalid UTF-8 — goes through
// json.Marshal, so every corner keeps encoding/json's bytes.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		// encoding/json writes printable ASCII other than `"\<>&`
		// verbatim and nothing else.
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeBatchRequest returns the hosts of a POST /v1/batch body, or
// the error json.Decoder gives for it. body is everything read before
// readErr (nil on a clean end of body). The exact shape
// {"hosts":["…",…]} with plain names is sliced from the body;
// anything else — whitespace, another key case, escapes, non-ASCII
// names, duplicate keys, null, trailing data, a read error — is
// decoded by encoding/json from the same byte stream, so it is
// answered exactly as if the decoder had read the request itself.
func decodeBatchRequest(body []byte, readErr error) ([]string, error) {
	if readErr == nil {
		if hosts, ok := parseBatchHosts(body); ok {
			return hosts, nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req BatchRequest
	if err := json.NewDecoder(src).Decode(&req); err != nil {
		return nil, err
	}
	return req.Hosts, nil
}

// parseBatchHosts accepts exactly {"hosts":[…]} whose elements are
// plain-byte strings (`<>&` included: they need no decoding), and
// returns the names as substrings of one copy of the list.
func parseBatchHosts(body []byte) ([]string, bool) {
	const head, tail = `{"hosts":[`, `]}`
	if len(body) < len(head)+len(tail) || !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte(tail)) {
		return nil, false
	}
	list := body[len(head) : len(body)-len(tail)]
	n := 0
	for i := 0; i < len(list); n++ {
		if n > 0 {
			if list[i] != ',' {
				return nil, false
			}
			i++
		}
		if i == len(list) || list[i] != '"' {
			return nil, false
		}
		for i++; i < len(list) && list[i] != '"'; i++ {
			if c := list[i]; c < 0x20 || c >= 0x7f || c == '\\' {
				return nil, false
			}
		}
		if i == len(list) {
			return nil, false
		}
		i++
	}
	hosts := make([]string, n)
	s := string(list)
	for k := range hosts {
		open := strings.IndexByte(s, '"') + 1
		end := open + strings.IndexByte(s[open:], '"')
		hosts[k], s = s[open:end], s[end+1:]
	}
	return hosts, true
}
