package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A strict parser for the Prometheus text exposition format. It
// exists so the exposition encoder can be verified by something that
// does not share its code: tests round-trip WritePrometheus output
// through ParsePrometheus, and cmd/promcheck applies the same parser
// to a live GET /metrics scrape in the obs-smoke script.
//
// Strictness beyond the wire grammar:
//   - every sample must belong to a family announced by a # TYPE line;
//   - a family's TYPE may not be redeclared;
//   - duplicate samples (same name and label set) are rejected;
//   - counter values must be finite and non-negative;
//   - histograms must have cumulative, non-decreasing buckets ending
//     in le="+Inf", a _count equal to the +Inf bucket, and a _sum.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one metric family: a # TYPE declaration and its
// samples in file order.
type PromFamily struct {
	Name    string
	Type    string
	Samples []PromSample
}

// promNameOK reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func promNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_' || r == ':':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// promLabelNameOK reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelNameOK(name string) bool {
	if name == "" || strings.ContainsRune(name, ':') {
		return false
	}
	return promNameOK(name)
}

// familyOf maps a sample name to its family name: histogram series
// fold their _bucket/_sum/_count suffix back onto the base name.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// ParsePrometheus parses a strict text exposition into its families,
// sorted by name. It returns an error carrying the offending line
// number on any violation.
func ParsePrometheus(r io.Reader) ([]PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := make(map[string]string)         // family -> type
	samples := make(map[string][]PromSample) // family -> samples
	seen := make(map[string]bool)            // name + rendered labels -> dup guard
	order := []string{}                      // family declaration order
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !promNameOK(name) {
					return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE declaration for %q", lineNo, name)
				}
				types[name] = typ
				order = append(order, name)
			}
			// Other comments (# HELP, plain #) are legal and skipped.
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(s.Name, types)
		typ, declared := types[fam]
		if !declared {
			return nil, fmt.Errorf("line %d: sample %q precedes its # TYPE declaration", lineNo, s.Name)
		}
		key := s.Name + "{" + renderLabels(s.Labels) + "}"
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		if typ == "counter" && !(s.Value >= 0) {
			return nil, fmt.Errorf("line %d: counter %s has negative or NaN value %v", lineNo, s.Name, s.Value)
		}
		samples[fam] = append(samples[fam], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]PromFamily, 0, len(order))
	for _, name := range order {
		f := PromFamily{Name: name, Type: types[name], Samples: samples[name]}
		if f.Type == "histogram" {
			if err := validateHistogramFamily(f); err != nil {
				return nil, err
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(labels[k])
	}
	return strings.Join(parts, ",")
}

// parseSampleLine parses `name{label="value",...} value [timestamp]`.
func parseSampleLine(line string) (PromSample, error) {
	s := PromSample{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexAny(rest, " \t")
	if brace >= 0 && (sp < 0 || brace < sp) {
		s.Name = rest[:brace]
		var err error
		rest, err = parseLabels(&s, rest[brace+1:])
		if err != nil {
			return s, err
		}
	} else {
		if sp < 0 {
			return s, fmt.Errorf("malformed sample line %q", line)
		}
		s.Name = rest[:sp]
		rest = rest[sp:]
	}
	if !promNameOK(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes `label="value",...}` and returns the remainder
// of the line past the closing brace.
func parseLabels(s *PromSample, rest string) (string, error) {
	s.Labels = make(map[string]string)
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return rest, fmt.Errorf("malformed labels near %q", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !promLabelNameOK(name) {
			return rest, fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return rest, fmt.Errorf("label %s value is not quoted", name)
		}
		val, n, err := unquoteLabelValue(rest[1:])
		if err != nil {
			return rest, fmt.Errorf("label %s: %w", name, err)
		}
		if _, dup := s.Labels[name]; dup {
			return rest, fmt.Errorf("duplicate label %q", name)
		}
		s.Labels[name] = val
		rest = rest[1+n:]
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		return rest, fmt.Errorf("malformed labels near %q", rest)
	}
}

// unquoteLabelValue decodes an escaped label value starting after the
// opening quote; n is the number of input bytes consumed including the
// closing quote.
func unquoteLabelValue(in string) (val string, n int, err error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch in[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", in[i])
			}
		case '\n':
			return "", 0, fmt.Errorf("unescaped newline in label value")
		default:
			b.WriteByte(in[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// parsePromValue parses a sample value, accepting the exposition
// spellings of the non-finite values.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogramFamily enforces the histogram invariants: bucket
// samples cumulative and non-decreasing in le order, a le="+Inf"
// bucket present, _count equal to the +Inf bucket, and a _sum sample.
func validateHistogramFamily(f PromFamily) error {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	var count, sum *float64
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket sample without le label", f.Name)
			}
			le, err := parsePromValue(leStr)
			if err != nil || math.IsNaN(le) {
				return fmt.Errorf("histogram %s: bad le %q", f.Name, leStr)
			}
			buckets = append(buckets, bucket{le: le, cum: s.Value})
		case f.Name + "_count":
			v := s.Value
			count = &v
		case f.Name + "_sum":
			v := s.Value
			sum = &v
		default:
			return fmt.Errorf("histogram %s: unexpected sample %s", f.Name, s.Name)
		}
	}
	if len(buckets) == 0 {
		return fmt.Errorf("histogram %s: no buckets", f.Name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	prev := math.Inf(-1)
	cum := -1.0
	for _, b := range buckets {
		if b.le == prev {
			return fmt.Errorf("histogram %s: duplicate le=%v bucket", f.Name, b.le)
		}
		prev = b.le
		if b.cum < cum {
			return fmt.Errorf("histogram %s: bucket counts not cumulative at le=%v", f.Name, b.le)
		}
		cum = b.cum
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", f.Name)
	}
	if count == nil {
		return fmt.Errorf("histogram %s: missing _count", f.Name)
	}
	if sum == nil {
		return fmt.Errorf("histogram %s: missing _sum", f.Name)
	}
	// lint:ignore floatcmp exact equality is the exposition invariant (+Inf bucket == _count, both integers)
	if last.cum != *count {
		return fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", f.Name, last.cum, *count)
	}
	return nil
}
