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

	"spammass/internal/graph"
)

// LoadLines reads path into one string per line, whitespace-trimmed.
// It is the shared line-file loader of the CLIs (names, labels).
func LoadLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		out = append(out, strings.TrimSpace(sc.Text()))
	}
	return out, sc.Err()
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
