// Package cliobs holds the input-file loaders the commands share: a
// line reader for name files and a validated node-ID reader for core
// and seed files.
package cliobs

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"unsafe"

	"spammass/internal/graph"
)

// maxLine is the longest line LoadLines accepts, in bytes counting any
// '\r' but not the '\n': the limit of a bufio.Scanner with a 1 MiB
// buffer, which FuzzLoadLines holds LoadLines to.
const maxLine = 1<<20 - 1

// LoadLines reads path into one string per line, whitespace-trimmed.
// It is the shared line-file loader of the CLIs (names, labels).
//
// The lines are bufio.ScanLines' lines — split on '\n', no empty line
// after a final '\n' — and a line longer than maxLine fails with
// bufio.ErrTooLong, returned beside the lines before it. The file is
// read in one piece and every line is a substring of it, so the
// allocations do not grow with the line count, and the whole file
// stays alive while any returned line does.
func LoadLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return nil, err
	}
	// data is never written again, so a string can share its bytes.
	s := unsafe.String(&data[0], len(data))
	out := make([]string, 0, strings.Count(s, "\n")+1)
	for s != "" {
		line, rest, _ := strings.Cut(s, "\n")
		if len(line) > maxLine {
			return out, bufio.ErrTooLong
		}
		out = append(out, strings.TrimSpace(line))
		s = rest
	}
	return out, nil
}

// LoadNodeIDs reads a node-ID file — one decimal ID per line, blank
// lines and #-comments skipped — validating every ID against a graph
// of n nodes. It is the shared core/seed loader of the CLIs.
func LoadNodeIDs(path string, n int) ([]graph.NodeID, error) {
	lines, err := LoadLines(path)
	if err != nil {
		return nil, err
	}
	var ids []graph.NodeID
	for _, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, err := strconv.ParseUint(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad node ID %q: %w", line, err)
		}
		if int(id) >= n {
			return nil, fmt.Errorf("node %d outside graph of %d nodes", id, n)
		}
		ids = append(ids, graph.NodeID(id))
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no node IDs in %s", path)
	}
	return ids, nil
}
