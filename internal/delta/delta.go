// Package delta is the graph-churn ingestion layer: it represents a
// batch of host-graph mutations — edges and hosts appearing and
// disappearing, the "spam nodes come and go" churn of Section 3.4 — as
// a typed mutation log, and applies a batch to an immutable
// graph.HostGraph in one merge pass, producing the next graph
// generation plus the node remapping that lets downstream consumers
// (the mass estimator's warm starts, the serving layer's snapshots)
// carry state forward instead of recomputing from scratch. A Fold
// stages a run of batches against one base graph and merges them once;
// Apply is the one-batch fold.
//
// Semantics are order-independent within a batch: a batch describes
// the net difference between two graph generations, not a replayed
// edit script. Identical duplicate ops collapse silently; ops that
// contradict each other (adding and removing the same edge, adding a
// host that exists, removing an edge that does not) are conflicts and
// fail validation, so a malformed delta can never be half-applied.
package delta

import (
	"fmt"
	"strings"
)

// Kind enumerates the mutation types.
type Kind uint8

// Mutation kinds. Edge ops name both endpoints; host ops name one.
const (
	// AddEdge inserts the directed edge (Src, Dst). Unknown endpoint
	// hosts are created implicitly — a newly crawled host usually
	// appears together with its links.
	AddEdge Kind = iota
	// RemoveEdge deletes the directed edge (Src, Dst), which must
	// exist.
	RemoveEdge
	// AddHost creates the (isolated) host Src, which must not exist.
	AddHost
	// RemoveHost deletes the host Src and all its incident edges.
	RemoveHost
)

func (k Kind) String() string {
	switch k {
	case AddEdge:
		return "+e"
	case RemoveEdge:
		return "-e"
	case AddHost:
		return "+h"
	case RemoveHost:
		return "-h"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one mutation. Hosts are identified by name (the stable
// identifier across graph generations; node IDs are renumbered by
// Apply). Dst is empty for host ops.
type Op struct {
	Kind Kind
	Src  string
	Dst  string
}

func (o Op) String() string {
	if o.Kind == AddHost || o.Kind == RemoveHost {
		return fmt.Sprintf("%s %s", o.Kind, o.Src)
	}
	return fmt.Sprintf("%s %s %s", o.Kind, o.Src, o.Dst)
}

// Batch is one atomic group of mutations: Apply either produces the
// fully mutated next generation or fails without side effects.
type Batch struct {
	Ops []Op
}

// Edge convenience constructors.

// AddEdgeOp returns a +e op.
func AddEdgeOp(src, dst string) Op { return Op{Kind: AddEdge, Src: src, Dst: dst} }

// RemoveEdgeOp returns a -e op.
func RemoveEdgeOp(src, dst string) Op { return Op{Kind: RemoveEdge, Src: src, Dst: dst} }

// AddHostOp returns a +h op.
func AddHostOp(name string) Op { return Op{Kind: AddHost, Src: name} }

// RemoveHostOp returns a -h op.
func RemoveHostOp(name string) Op { return Op{Kind: RemoveHost, Src: name} }

// NumOps returns the number of ops in the batch.
func (b *Batch) NumOps() int { return len(b.Ops) }

// validName rejects names the line-oriented codec cannot represent:
// empty strings, whitespace, and the comment marker.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("delta: empty host name")
	}
	if strings.ContainsAny(name, " \t\n\r") {
		return fmt.Errorf("delta: host name %q contains whitespace", name)
	}
	if name[0] == '#' {
		return fmt.Errorf("delta: host name %q starts with comment marker", name)
	}
	return nil
}

// Validate checks every op in isolation: known kind, codec-safe host
// names, no self-edges, Dst present exactly for edge ops. Cross-op
// conflicts (duplicate host additions, contradictory edge ops) are
// detected by Apply, which has the base graph to resolve names
// against.
func (b *Batch) Validate() error {
	for i, op := range b.Ops {
		if err := op.validate(); err != nil {
			return fmt.Errorf("delta: op %d: %w", i, err)
		}
	}
	return nil
}

func (o Op) validate() error {
	switch o.Kind {
	case AddEdge, RemoveEdge:
		if err := validName(o.Src); err != nil {
			return err
		}
		if err := validName(o.Dst); err != nil {
			return err
		}
		if o.Src == o.Dst {
			return fmt.Errorf("delta: self-edge on host %q", o.Src)
		}
	case AddHost, RemoveHost:
		if err := validName(o.Src); err != nil {
			return err
		}
		if o.Dst != "" {
			return fmt.Errorf("delta: host op %s carries destination %q", o.Kind, o.Dst)
		}
	default:
		return fmt.Errorf("delta: unknown op kind %d", int(o.Kind))
	}
	return nil
}

// Dedup returns a batch with identical duplicate ops collapsed,
// preserving first-occurrence order. Contradictory ops are NOT
// resolved — they remain and fail at Apply, by design: a delta feed
// that contradicts itself is corrupt, not ambiguous.
func (b *Batch) Dedup() *Batch {
	seen := make(map[Op]bool, len(b.Ops))
	out := &Batch{Ops: make([]Op, 0, len(b.Ops))}
	for _, op := range b.Ops {
		if seen[op] {
			continue
		}
		seen[op] = true
		out.Ops = append(out.Ops, op)
	}
	return out
}

// Stats summarizes what one Apply changed. Edge counts include the
// edges implicitly dropped by host removals.
type Stats struct {
	HostsAdded   int   `json:"hosts_added"`
	HostsRemoved int   `json:"hosts_removed"`
	EdgesAdded   int64 `json:"edges_added"`
	EdgesRemoved int64 `json:"edges_removed"`
}

// AppliedEdges returns the total number of edge mutations realized,
// additions plus removals — the unit of the delta.applied_edges
// serving metric.
func (s Stats) AppliedEdges() int64 { return s.EdgesAdded + s.EdgesRemoved }

// Add accumulates o into s, so a run of applied batches reports one
// total.
func (s *Stats) Add(o Stats) {
	s.HostsAdded += o.HostsAdded
	s.HostsRemoved += o.HostsRemoved
	s.EdgesAdded += o.EdgesAdded
	s.EdgesRemoved += o.EdgesRemoved
}

func (s Stats) String() string {
	return fmt.Sprintf("+%dh -%dh +%de -%de", s.HostsAdded, s.HostsRemoved, s.EdgesAdded, s.EdgesRemoved)
}
